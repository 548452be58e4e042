//go:build unix

package jvm

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mapWords returns n zeroed words in an anonymous private mapping of
// their own. The kernel supplies each page on first touch, so a heap's
// footprint is the pages its program writes, not its capacity.
func mapWords(n int) []uint64 {
	if n == 0 {
		return []uint64{}
	}
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("jvm: cannot map a %d-byte heap: %v", n*8, err))
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

// unmapWords returns a mapWords slice to the kernel.
func unmapWords(w []uint64) {
	if len(w) == 0 {
		return
	}
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8)); err != nil {
		panic(fmt.Sprintf("jvm: cannot unmap a %d-byte heap: %v", len(w)*8, err))
	}
}
