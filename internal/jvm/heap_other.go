//go:build !unix

package jvm

// mapWords returns n zeroed words. Without an anonymous-mapping call
// the words are an ordinary Go slice, so the Go collector reclaims them.
func mapWords(n int) []uint64 { return make([]uint64, n) }

// unmapWords drops a mapWords slice; the collector frees it.
func unmapWords([]uint64) {}
