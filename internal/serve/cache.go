package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// responseCache is the bounded fingerprint-keyed LRU over marshaled
// convert responses — the ROADMAP's deferred store-cache follow-on landed
// at service scope. Keys are SHA-256 hashes of (dialect, serialized
// input): a repeat convert of byte-identical input costs one hash and
// one map probe instead of a parse, and the cached body
// already carries the plan's Fingerprint64/SHA-256 fingerprints, so
// fingerprint-shaped lookups are free too. (The key must hash the input,
// not the resulting plan's Fingerprint64 — the plan fingerprint only
// exists after the very conversion the cache is there to skip.)
//
// Capacity is a hard entry cap with LRU eviction; a full cache stays
// full-sized forever, it never grows. Safe for concurrent use.
type responseCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[cacheKeyHash]*list.Element
	order    *list.List // front = most recent
	hits     atomic.Int64
	misses   atomic.Int64
}

// cacheEntry is one cached response body keyed by its input hash.
type cacheEntry struct {
	key  cacheKeyHash
	body []byte
}

// cacheKeyHash is a SHA-256 digest: unlike a 64-bit hash, no two inputs
// anyone can construct share one, so a hit is always this input's answer.
type cacheKeyHash = [sha256.Size]byte

// newResponseCache returns a cache bounded to capacity entries; a
// non-positive capacity disables caching (every Get misses, Put drops).
func newResponseCache(capacity int) *responseCache {
	c := &responseCache{capacity: capacity}
	if capacity > 0 {
		c.entries = make(map[cacheKeyHash]*list.Element, capacity)
		c.order = list.New()
	}
	return c
}

// cacheKey hashes one request's identity: the dialect's length, the
// dialect and the serialized input. The length prefix keeps the split
// between dialect and input unambiguous, so distinct (dialect, input)
// pairs never frame to the same bytes. Convert responses are JSON only,
// so the input alone decides the body.
func cacheKey(dialect, serialized string) cacheKeyHash {
	buf := make([]byte, 0, 8+len(dialect)+len(serialized))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(dialect)))
	buf = append(buf, dialect...)
	buf = append(buf, serialized...)
	return sha256.Sum256(buf)
}

// Get returns the cached response body for the key, marking it most
// recently used. The returned slice is shared — callers must treat it as
// read-only.
func (c *responseCache) Get(key cacheKeyHash) ([]byte, bool) {
	if c.capacity <= 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

// Put stores an exact-size copy of one response body, evicting the
// least recently used entry when the cache is at capacity. Storing an
// existing key refreshes its recency and replaces the body.
func (c *responseCache) Put(key cacheKeyHash, body []byte) {
	if c.capacity <= 0 {
		return
	}
	body = bytes.Clone(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
}

// Len is the current entry count.
func (c *responseCache) Len() int {
	if c.capacity <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the hit/miss counters for /metrics.
func (c *responseCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
