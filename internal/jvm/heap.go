package jvm

import (
	"fmt"
	"slices"
	"sync"
)

// Object kinds stored in header word 1.
const (
	kindObject = iota
	kindIntArray
	kindFloatArray
	kindRefArray
	// kindFree marks a swept hole so the next sweep walk can traverse
	// the heap object-by-object without a side table.
	kindFree = 0x7FFF_FFFF
)

// headerWords is the per-object header size: word 0 holds the size in
// words (header included); word 1 packs kind, class id and the mark bit.
const headerWords = 2

const markBit = uint64(1) << 63

// heap is the simulated Java heap: a single word array with a bump
// allocator fed by a first-fit free list that the mark-sweep collector
// rebuilds. Simulated addresses are byte addresses:
// addr = base + wordIndex*8, so every field/element access the
// interpreter performs lands on a unique cacheable address.
type heap struct {
	base  uint64
	words []uint64
	// bump is the high-water mark in words; free holds swept holes.
	bump int
	free []span
	// liveWords tracks allocated-minus-freed words for GC triggering.
	liveWords int
}

type span struct{ off, size int }

// heapPool recycles the word arrays of terminated VMs, so a campaign
// that relaunches a program for every run reuses heaps instead of
// allocating one per launch. A pooled slice has the released heap's
// capacity and, as its length, that heap's bump: the only prefix ever
// written, and so the only part a reuse must clear.
//
// It is a plain free list of at most maxPooledHeaps arrays, not a
// sync.Pool: a sync.Pool empties at garbage collections and keeps a
// per-P cache, so whether a launch reused a heap, and with it the
// process's peak memory, would vary from one run to the next.
var heapPool struct {
	sync.Mutex
	free [][]uint64
}

// maxPooledHeaps bounds the released arrays kept for reuse: one per
// program of a relaunching pairing on each of a few workers. A release
// beyond it drops the oldest array, so arrays of a size no longer
// launched age out.
const maxPooledHeaps = 4

func newHeap(base uint64, capWords int) *heap {
	heapPool.Lock()
	var w []uint64
	for i := len(heapPool.free) - 1; i >= 0; i-- {
		if cap(heapPool.free[i]) == capWords {
			w = heapPool.free[i]
			heapPool.free = slices.Delete(heapPool.free, i, i+1)
			break
		}
	}
	heapPool.Unlock()
	if w == nil {
		return &heap{base: base, words: make([]uint64, capWords)}
	}
	clear(w)
	return &heap{base: base, words: w[:capWords]}
}

// release hands the word array to heapPool when the VM terminates
// (DESIGN.md §5, "VM lifecycle and memory"). words becomes nil, so a
// later access panics instead of reading a recycled heap.
func (h *heap) release() {
	w := h.words[:h.bump]
	h.words = nil
	heapPool.Lock()
	if len(heapPool.free) == maxPooledHeaps {
		heapPool.free = slices.Delete(heapPool.free, 0, 1)
	}
	heapPool.free = append(heapPool.free, w)
	heapPool.Unlock()
}

// addrToIdx converts a simulated address to a word index, panicking on a
// wild pointer — which in a verified program indicates a VM bug, not a
// recoverable condition.
func (h *heap) addrToIdx(addr uint64) int {
	if addr < h.base || addr&7 != 0 {
		panic(fmt.Sprintf("jvm: wild heap address %#x", addr))
	}
	idx := int((addr - h.base) >> 3)
	if idx >= len(h.words) {
		panic(fmt.Sprintf("jvm: heap address %#x beyond heap end", addr))
	}
	return idx
}

func (h *heap) idxToAddr(idx int) uint64 { return h.base + uint64(idx)<<3 }

// alloc reserves size data words plus the header and returns the object's
// base word index, or -1 if the heap cannot satisfy the request (caller
// triggers GC). kind/class initialize the header; contents are zeroed.
func (h *heap) alloc(dataWords int, kind, class int32) int {
	need := dataWords + headerWords
	// First fit from the free list. A remainder too small to carry a
	// free header is absorbed into the allocation rather than leaked.
	for i, s := range h.free {
		if s.size >= need {
			idx := s.off
			take := need
			if s.size-need < headerWords {
				take = s.size
			}
			if s.size == take {
				h.free = append(h.free[:i], h.free[i+1:]...)
			} else {
				rest := span{off: s.off + take, size: s.size - take}
				h.free[i] = rest
				h.writeFreeHeader(rest)
			}
			h.initObject(idx, take, kind, class)
			return idx
		}
	}
	if h.bump+need <= len(h.words) {
		idx := h.bump
		h.bump += need
		h.initObject(idx, need, kind, class)
		return idx
	}
	return -1
}

func (h *heap) initObject(idx, sizeWords int, kind, class int32) {
	h.words[idx] = uint64(sizeWords)
	h.words[idx+1] = uint64(uint32(kind))<<32 | uint64(uint32(class))
	for i := idx + headerWords; i < idx+sizeWords; i++ {
		h.words[i] = 0
	}
	h.liveWords += sizeWords
}

// objSize returns the total size in words of the object at idx.
func (h *heap) objSize(idx int) int { return int(h.words[idx]) }

// objKind returns the object kind. The low header half-word is the class
// id for plain objects and the element count for arrays (arrays need no
// class, and an explicit length stays exact even when the allocator
// absorbs free-list slack into the object).
func (h *heap) objKind(idx int) int32  { return int32(h.words[idx+1] >> 32 & 0x7FFF_FFFF) }
func (h *heap) objClass(idx int) int32 { return int32(uint32(h.words[idx+1])) }
func (h *heap) arrayLen(idx int) int32 { return h.objClass(idx) }

func (h *heap) marked(idx int) bool { return h.words[idx+1]&markBit != 0 }
func (h *heap) setMark(idx int)     { h.words[idx+1] |= markBit }
func (h *heap) clearMark(idx int)   { h.words[idx+1] &^= markBit }

// occupancy returns live words as a fraction of capacity.
func (h *heap) occupancy() float64 { return float64(h.liveWords) / float64(len(h.words)) }

// beginSweep resets the free list; the collector then walks the bump
// region with sweepSpan, which rebuilds it with coalescing.
func (h *heap) beginSweep() { h.free = h.free[:0] }

// sweepSpan scans heap words [from, to): live objects get their mark
// cleared; dead objects and pre-existing holes become (coalesced) free
// spans. It returns the words newly freed and the resume index. The
// caller iterates in chunks so sweep work can be metered into µops.
func (h *heap) sweepSpan(from, to int) (freed int, next int) {
	idx := from
	for idx < to && idx < h.bump {
		size := h.objSize(idx)
		if size <= 0 || idx+size > h.bump {
			panic(fmt.Sprintf("jvm: corrupt heap header at word %d (size %d)", idx, size))
		}
		switch {
		case h.objKind(idx) == kindFree:
			h.addFree(span{off: idx, size: size})
		case h.marked(idx):
			h.clearMark(idx)
		default:
			freed += size
			h.liveWords -= size
			h.addFree(span{off: idx, size: size})
		}
		idx += size
	}
	return freed, idx
}

// addFree registers a hole, coalescing with the immediately preceding
// hole (sweep visits the heap in address order, so adjacency is always
// with the list tail) and stamping a free header so later sweeps can walk
// over it.
func (h *heap) addFree(s span) {
	if n := len(h.free); n > 0 {
		last := &h.free[n-1]
		if last.off+last.size == s.off {
			last.size += s.size
			h.writeFreeHeader(*last)
			return
		}
	}
	h.free = append(h.free, s)
	h.writeFreeHeader(s)
}

func (h *heap) writeFreeHeader(s span) {
	h.words[s.off] = uint64(s.size)
	h.words[s.off+1] = uint64(kindFree) << 32
}
