package jvm

import (
	"javasmt/internal/counters"
	"javasmt/internal/isa"
)

// gcCodeBase is the µop PC region of the collector's mark/sweep loops.
const gcCodeBase = runtimeCodeBase + 4096

// GC phases.
const (
	gcIdle = iota
	gcMark
	gcSweep
)

// gcState drives the stop-the-world mark-sweep collection. It runs as a
// dedicated Java-level helper thread — the reason "the whole JVM usually
// is a multithreaded application even when the Java applications on the
// top of it are single-threaded" — and emits Load µops at the addresses
// of the objects it actually traverses, so collections drag the live
// object graph through the simulated caches just as real collections do.
type gcState struct {
	vm *VM
	t  *Thread

	phase int
	// work is the mark stack: object word index + scan offset, so huge
	// arrays can be scanned across multiple Fill calls.
	work     []gcWorkItem
	sweepPos int
	// freedWords accumulates per-collection reclaim for stats.
	freedWords int
}

type gcWorkItem struct{ idx, off int }

// newGCThread builds the collector thread.
func (vm *VM) newGCThread() *Thread {
	t := &Thread{vm: vm, id: len(vm.threads), name: "gc"}
	t.stackBase = vm.stacksBase + uint64(t.id)*stackBytesPer
	t.gc = &gcState{vm: vm, t: t}
	vm.threads = append(vm.threads, t)
	t.osThread = vm.proc.Spawn("gc", t)
	return t
}

// fill is the collector's µop source.
func (g *gcState) fill(buf []isa.Uop) (int, bool) {
	vm := g.vm
	if vm.shutdown && g.phase == gcIdle {
		return g.exit(0)
	}
	if !vm.gcRunning {
		// Spurious wakeup: park again.
		vm.blockThread(g.t, blockGCIdle)
		return 0, false
	}

	n := 0
	budget := len(buf) - 16
	switch g.phase {
	case gcIdle:
		g.collectRoots()
		g.phase = gcMark
		// Root-scan stub µops.
		for i := 0; i < 32 && n < budget; i++ {
			g.emit(buf, &n, isa.Uop{PC: gcCodeBase + uint64(i%64), Class: isa.ALU})
		}

	case gcMark:
		h := vm.heap
		for n < budget && len(g.work) > 0 {
			// Pop before scanning: scanObject appends children, so
			// holding an index (or pointer) into the stack across the
			// scan would corrupt the traversal.
			item := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			if !g.scanObject(h, &item, buf, &n, budget) {
				// Budget exhausted mid-object: resume it next Fill.
				g.work = append(g.work, item)
				break
			}
		}
		if len(g.work) == 0 {
			h.beginSweep()
			g.sweepPos = 0
			g.freedWords = 0
			g.phase = gcSweep
			if n == 0 {
				// A collection with an empty root set reaches here without
				// marking anything; a fill must never return zero µops for
				// a runnable thread, so emit the transition bookkeeping.
				g.emit(buf, &n, isa.Uop{PC: gcCodeBase + 255, Class: isa.ALU})
			}
		}

	case gcSweep:
		h := vm.heap
		for n < budget && g.sweepPos < h.bump {
			freed, next := h.sweepSpan(g.sweepPos, g.sweepPos+vm.cfg.GCWorkChunk)
			g.freedWords += freed
			// The sweep loop touches each header line.
			for i := 0; i < 48 && n < budget; i++ {
				pc := gcCodeBase + 256 + uint64(i%32)
				if i%3 == 0 {
					g.emit(buf, &n, isa.Uop{PC: pc, Class: isa.Load,
						Addr: h.idxToAddr(g.sweepPos + i*vm.cfg.GCWorkChunk/48)})
				} else {
					g.emit(buf, &n, isa.Uop{PC: pc, Class: isa.ALU})
				}
			}
			g.sweepPos = next
		}
		if g.sweepPos >= h.bump {
			g.phase = gcIdle
			vm.file.Add(counters.GCCycles, 64)
			vm.gcFinished()
			if vm.shutdown {
				return g.exit(n)
			}
			vm.blockThread(g.t, blockGCIdle)
			return n, false
		}
	}
	return n, false
}

// exit ends the collector, and with it the VM: every mutator has
// exited, so nothing reads the heap again and its words are recycled.
func (g *gcState) exit(n int) (int, bool) {
	g.vm.heap.release()
	return n, true
}

func (g *gcState) emit(buf []isa.Uop, n *int, u isa.Uop) {
	g.t.uopIdx++
	buf[*n] = u
	*n++
	g.vm.file.Inc(counters.GCCycles)
}

// collectRoots seeds the mark stack from globals and every thread's
// frames (locals and operand stacks, via their slots' reference bits).
func (g *gcState) collectRoots() {
	vm := g.vm
	for i, v := range vm.globals {
		if vm.prog.GlobalRefMask&(1<<uint(i)) != 0 {
			g.markAddr(v)
		}
	}
	for _, t := range vm.threads {
		if t.gc != nil || t.exited {
			continue
		}
		for fi := 0; fi < t.depth; fi++ {
			f := &t.frames[fi]
			for _, sl := range f.slots[:f.sp] {
				if sl.ref {
					g.markAddr(sl.v)
				}
			}
		}
	}
}

// markAddr marks the object at addr (0 = null) and queues it for scanning.
func (g *gcState) markAddr(addr uint64) {
	if addr == 0 {
		return
	}
	h := g.vm.heap
	idx := h.addrToIdx(addr)
	if h.marked(idx) {
		return
	}
	h.setMark(idx)
	g.work = append(g.work, gcWorkItem{idx: idx})
}

// scanObject scans the object's reference slots from item.off, marking
// children and emitting Load µops at the addresses it reads. It returns
// true when the object is fully scanned; otherwise item.off records the
// resume point (budget exhausted).
func (g *gcState) scanObject(h *heap, item *gcWorkItem, buf []isa.Uop, n *int, budget int) bool {
	idx := item.idx
	kind := h.objKind(idx)
	switch kind {
	case kindRefArray:
		length := int(h.arrayLen(idx))
		for item.off < length {
			if *n >= budget {
				return false
			}
			w := idx + headerWords + item.off
			g.emit(buf, n, isa.Uop{PC: gcCodeBase + 128, Class: isa.Load, Addr: h.idxToAddr(w)})
			g.markAddr(h.words[w])
			item.off++
		}
		return true
	case kindObject:
		cls := g.vm.prog.Classes[h.objClass(idx)]
		if cls.RefMask == 0 {
			// Header touch only.
			g.emit(buf, n, isa.Uop{PC: gcCodeBase + 130, Class: isa.Load, Addr: h.idxToAddr(idx)})
			return true
		}
		for item.off < cls.NumFields {
			if *n >= budget {
				return false
			}
			if cls.RefMask&(1<<uint(item.off)) != 0 {
				w := idx + headerWords + item.off
				g.emit(buf, n, isa.Uop{PC: gcCodeBase + 132, Class: isa.Load, Addr: h.idxToAddr(w)})
				g.markAddr(h.words[w])
			}
			item.off++
		}
		return true
	default:
		// Primitive arrays have no children; touch the header.
		g.emit(buf, n, isa.Uop{PC: gcCodeBase + 134, Class: isa.Load, Addr: h.idxToAddr(idx)})
		return true
	}
}
