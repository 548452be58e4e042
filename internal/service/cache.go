package service

import "sync"

// Cache is the in-process result cache: completed cell payloads keyed
// by the campaign config and the cell label, joined by a NUL byte. A
// re-submitted identical campaign is served from here without
// re-simulating — each hit is recorded into the new job's ledger as
// the exact payload bytes the original run journaled, so a cached job's
// ledger is indistinguishable from a simulated one.
//
// The cache lives for the daemon process; restarts rebuild it from the
// ledgers of the jobs they recover.
type Cache struct {
	mu      sync.Mutex
	entries map[string][]byte
	hits    int
	misses  int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[string][]byte{}}
}

// Get returns the cached payload for the cell under the campaign
// config, if present.
func (c *Cache) Get(config, cell string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, ok := c.entries[config+"\x00"+cell]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return payload, true
}

// Put stores a completed cell's payload. Failed cells are never cached
// (the fault may be environmental); callers enforce that by only
// passing OK payloads.
func (c *Cache) Put(config, cell string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[config+"\x00"+cell] = payload
}

// Stats returns lifetime hit/miss counts and the entry count.
func (c *Cache) Stats() (hits, misses, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
