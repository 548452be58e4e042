package core

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"javasmt/internal/counters"
	"javasmt/internal/isa"
)

// wakeWorld is a tiny cross-waking OS shared by every context's feed: each
// context runs rounds of µop bursts, round r on context i may start only
// once context i-1 has started its round r, and context 0 may run at most
// two rounds ahead of the last context. A Fill on one context therefore
// makes another runnable — the way a simos Unblock does — and Done is
// global, flipping for every context inside the Fill that runs the last
// round anywhere, the way the last thread's exit does.
type wakeWorld struct {
	progress []int // rounds started per context
	rounds   int
	emitted  uint64
}

func (w *wakeWorld) runnable(i int) bool {
	n := len(w.progress)
	if w.progress[i] >= w.rounds {
		return false
	}
	if i == 0 {
		return w.progress[0]-w.progress[n-1] < 2
	}
	return w.progress[i-1] > w.progress[i]
}

func (w *wakeWorld) done() bool {
	for _, p := range w.progress {
		if p < w.rounds {
			return false
		}
	}
	return true
}

// wakeFeed is context i's view of the world.
type wakeFeed struct {
	w *wakeWorld
	i int
}

func (f *wakeFeed) Runnable(uint64) bool { return f.w.runnable(f.i) }
func (f *wakeFeed) Done() bool           { return f.w.done() }

// Fill emits one round's burst: a mix of ALU, load, store and branch µops
// over a per-context code and data region, in kernel mode every fifth
// round, ending in a fence (the release that wakes the next context).
func (f *wakeFeed) Fill(_ uint64, buf []isa.Uop) int {
	w, i := f.w, f.i
	if !w.runnable(i) {
		return 0
	}
	r := w.progress[i]
	w.progress[i]++
	n := 16 + (i*7+r*5)%48
	if n > len(buf) {
		n = len(buf)
	}
	kernel := r%5 == 4
	for k := 0; k < n; k++ {
		pc := uint64(i)<<12 + uint64(r*n+k)%600
		u := isa.Uop{PC: pc, Class: isa.ALU, DepDist: 1, Kernel: kernel}
		switch {
		case k == n-1:
			u = isa.Uop{PC: pc, Class: isa.Fence, Kernel: kernel}
		case k%6 == 0:
			u.Class, u.Addr = isa.Load, 0x3000_0000+uint64(i)<<20+uint64(r*n+k)*64%(64<<10)
		case k%6 == 3:
			u.Class, u.Addr = isa.Store, 0x3000_8000+uint64(i)<<20+uint64(k)*8
		case k%6 == 4:
			u.Class, u.Taken, u.Target = isa.Branch, (r+k)%4 == 0, pc+3
		}
		buf[k] = u
	}
	w.emitted += uint64(n)
	return n
}

// TestCrossWakingFeeds runs feeds whose Fill on one context flips another
// context's Runnable and every context's Done, and requires a clean finish
// (no spurious deadlock from stale activity) with counter files pinned to
// the values of the all-context-scan cycle loop.
func TestCrossWakingFeeds(t *testing.T) {
	pins := map[string]struct {
		cycles uint64
		digest uint64
	}{
		"1x1": {63092, 0x7b0a10a0c7c8c62a},
		"1x2": {70196, 0x3f47c54495bfa60d},
		"2x2": {77088, 0x2a0cd1322d3afbb},
		"4x4": {139344, 0xdc2a1237edc6368d},
	}
	for _, geo := range []Geometry{{1, 1}, {1, 2}, {2, 2}, {4, 4}} {
		t.Run(geo.String(), func(t *testing.T) {
			cfg := DefaultConfig(false)
			cfg.Geometry = geo
			cpu := New(cfg)
			w := &wakeWorld{progress: make([]int, geo.Total()), rounds: 40}
			for i := 0; i < geo.Total(); i++ {
				cpu.AttachFeed(i, &wakeFeed{w: w, i: i})
			}
			// The bound turns a front end spinning on a stale "runnable"
			// into a failure instead of a hang.
			cycles, err := cpu.Run(1 << 20)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !cpu.Drained() || !w.done() {
				t.Fatalf("run stopped after %d cycles before every round ran (progress %v)", cycles, w.progress)
			}
			f := cpu.Counters()
			if got := f.Get(counters.Instructions); got != w.emitted {
				t.Fatalf("retired %d µops, feeds emitted %d", got, w.emitted)
			}
			js, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(js)
			pin := pins[geo.String()]
			if cycles != pin.cycles || h.Sum64() != pin.digest {
				t.Errorf("counters moved: got {%d, %#x}, pinned {%d, %#x}\n%s",
					cycles, h.Sum64(), pin.cycles, pin.digest, js)
			}
		})
	}
}
