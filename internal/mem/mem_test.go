package mem

import (
	"testing"
	"testing/quick"
)

func TestRowHitIsFaster(t *testing.T) {
	d := New(DefaultConfig())
	cold := d.Access(0x10000, false, 0)
	warm := d.Access(0x10040, false, 10_000) // same 8 KiB row, bus long free
	if warm >= cold {
		t.Fatalf("row hit (%d) should be faster than row miss (%d)", warm, cold)
	}
	if d.Stats().RowHits != 1 {
		t.Fatalf("row hits = %d, want 1", d.Stats().RowHits)
	}
}

func TestRowConflictReopens(t *testing.T) {
	d := New(DefaultConfig())
	d.Access(0x0, false, 0)
	// Same bank, different row: rows are addr>>13, banks row%8, so row 8
	// (addr 8<<13) maps to bank 0 like row 0.
	lat := d.Access(8<<13, false, 10_000)
	if lat != DefaultConfig().BaseLatency {
		t.Fatalf("row conflict latency = %d, want %d", lat, DefaultConfig().BaseLatency)
	}
}

func TestBusQueueing(t *testing.T) {
	d := New(DefaultConfig())
	first := d.Access(0x10000, false, 100)
	second := d.Access(0x20000, false, 100) // same cycle: must queue behind the first transfer
	if second <= first-100 && second <= first {
		t.Fatalf("second concurrent access (%d) should pay bus occupancy beyond the first (%d)", second, first)
	}
	if d.Stats().BusWaits != 1 {
		t.Fatalf("bus waits = %d, want 1", d.Stats().BusWaits)
	}
	// A later access with an idle bus pays no queueing.
	d2 := New(DefaultConfig())
	d2.Access(0x0, false, 0)
	// Row 8 maps to bank 0 like row 0, so this closes row 0: full latency.
	if lat := d2.Access(8<<13, false, 1_000); lat != DefaultConfig().BaseLatency {
		t.Fatalf("idle-bus access latency = %d, want %d", lat, DefaultConfig().BaseLatency)
	}
}

func TestReadWriteCounting(t *testing.T) {
	d := New(DefaultConfig())
	d.Access(0, false, 0)
	d.Access(64, true, 1000)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Accesses() != 2 {
		t.Fatalf("stats = %+v", s)
	}
	d.Reset()
	if d.Stats() != (Stats{}) {
		t.Fatal("Reset left stats behind")
	}
}

// Property: latency is always at least RowHitLatency and monotone in bus
// pressure — and never negative or zero.
func TestLatencyBounds(t *testing.T) {
	f := func(addrs []uint32) bool {
		d := New(DefaultConfig())
		now := uint64(0)
		for _, a := range addrs {
			lat := d.Access(uint64(a), false, now)
			if lat < DefaultConfig().RowHitLatency {
				return false
			}
			now += 3 // dense request stream
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
