package service

import (
	"bytes"
	"testing"
)

func TestCacheRoundtrip(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("cfg", "cell"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("cfg", "cell", []byte(`{"v":1}`))
	got, ok := c.Get("cfg", "cell")
	if !ok || !bytes.Equal(got, []byte(`{"v":1}`)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Same cell under a different campaign configuration must miss.
	if _, ok := c.Get("other-cfg", "cell"); ok {
		t.Fatal("hit across configs")
	}
	if _, ok := c.Get("cfg", "other-cell"); ok {
		t.Fatal("hit across cells")
	}
	c.Put("cfg", "cell", []byte(`{"v":2}`))
	if got, _ := c.Get("cfg", "cell"); !bytes.Equal(got, []byte(`{"v":2}`)) {
		t.Fatalf("overwrite not visible: %q", got)
	}
	hits, misses, size := c.Stats()
	if hits != 2 || misses != 3 || size != 1 {
		t.Fatalf("Stats = %d hits, %d misses, %d entries; want 2, 3, 1", hits, misses, size)
	}
}

func TestCacheSeparatesConfigAndCell(t *testing.T) {
	// The NUL separator keeps (config, cell) unambiguous: moving a
	// character across the boundary names a different entry.
	c := NewCache()
	c.Put("ab", "c", []byte("1"))
	if _, ok := c.Get("a", "bc"); ok {
		t.Fatal("key collides across the config/cell boundary")
	}
	if got, ok := c.Get("ab", "c"); !ok || string(got) != "1" {
		t.Fatalf("Get(ab, c) = %q, %v", got, ok)
	}
}
