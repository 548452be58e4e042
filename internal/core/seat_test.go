package core

import "testing"

func TestSeatIndexRoundTrip(t *testing.T) {
	for _, g := range []Geometry{
		{Cores: 1, ContextsPerCore: 2},
		{Cores: 2, ContextsPerCore: 2},
		{Cores: 4, ContextsPerCore: 4},
		{Cores: 3, ContextsPerCore: 1},
	} {
		seats := g.Seats()
		if len(seats) != g.Total() {
			t.Fatalf("geo %v: %d seats, want %d", g, len(seats), g.Total())
		}
		for lp := 0; lp < g.Total(); lp++ {
			s := g.SeatOf(lp)
			if s != seats[lp] {
				t.Fatalf("geo %v: SeatOf(%d) = %v, Seats()[%d] = %v", g, lp, s, lp, seats[lp])
			}
			if got := g.Index(s); got != lp {
				t.Fatalf("geo %v: Index(SeatOf(%d)) = %d", g, lp, got)
			}
			if s.Core < 0 || s.Core >= g.Cores || s.Ctx < 0 || s.Ctx >= g.ContextsPerCore {
				t.Fatalf("geo %v: seat %v out of range", g, s)
			}
		}
	}
}

func TestSeatString(t *testing.T) {
	if got := (Seat{Core: 2, Ctx: 1}).String(); got != "c2.t1" {
		t.Fatalf("Seat string = %q, want c2.t1", got)
	}
}

func TestSeatDynIsPureRead(t *testing.T) {
	cpu := New(DefaultConfig(true))
	g := cpu.cfg.Geometry
	for lp := 0; lp < g.Total(); lp++ {
		before := cpu.Counters().Get(0)
		d1 := cpu.SeatDyn(g.SeatOf(lp))
		d2 := cpu.SeatDyn(g.SeatOf(lp))
		if d1 != d2 {
			t.Fatalf("lp %d: repeated SeatDyn reads differ: %+v vs %+v", lp, d1, d2)
		}
		if after := cpu.Counters().Get(0); after != before {
			t.Fatalf("lp %d: SeatDyn perturbed counters", lp)
		}
	}
}
