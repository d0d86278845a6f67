package router

import (
	"container/list"
	"sync"
)

// Cache is the router's content-addressed solution cache: a
// memory-bounded LRU keyed on the canonical graph hash plus the
// answer-shaping knobs (solver chain, cost mode). Register-allocation
// traffic is dominated by recompiles of the same functions, so a small
// cache absorbs most of the offered load before any backend is
// touched.
//
// The bound is on memory, not entry count: each entry is charged its
// body length plus key length plus a fixed bookkeeping overhead, and
// inserts evict from the LRU tail until the total fits the ceiling. An
// entry larger than the whole ceiling is not admitted at all — one
// adversarial megagraph cannot flush the entire working set and then
// dominate it. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	maxByte int64
	curByte int64
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	evictions int64
}

// cacheEntry is one cached answer: the upstream status code and the
// exact response body the router replays to later requests.
type cacheEntry struct {
	key    string
	status int
	body   []byte
}

// entryOverhead approximates the per-entry bookkeeping cost (map slot,
// list element, struct header) charged on top of the key and body
// bytes.
const entryOverhead = 128

func (e *cacheEntry) size() int64 {
	return int64(len(e.key)) + int64(len(e.body)) + entryOverhead
}

// NewCache builds a cache bounded at maxBytes. maxBytes <= 0 disables
// caching entirely: Get always misses and Put drops everything.
func NewCache(maxBytes int64) *Cache {
	return &Cache{
		maxByte: maxBytes,
		order:   list.New(),
		entries: map[string]*list.Element{},
	}
}

// Get returns the cached answer for key, marking it most recently
// used.
func (c *Cache) Get(key string) (status int, body []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return 0, nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.status, e.body, true
}

// Put stores an answer under key, evicting least-recently-used entries
// until the memory ceiling holds. Oversized entries (larger than the
// whole ceiling) and disabled caches drop the insert silently; a
// re-insert under an existing key replaces the old answer.
func (c *Cache) Put(key string, status int, body []byte) {
	e := &cacheEntry{key: key, status: status, body: body}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxByte <= 0 || e.size() > c.maxByte {
		return
	}
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		c.curByte -= old.size()
		el.Value = e
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(e)
	}
	c.curByte += e.size()
	for c.curByte > c.maxByte {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*cacheEntry)
		c.order.Remove(tail)
		delete(c.entries, victim.key)
		c.curByte -= victim.size()
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the current charged memory footprint.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curByte
}

// Evictions returns the cumulative count of entries evicted to keep
// the memory ceiling.
func (c *Cache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
