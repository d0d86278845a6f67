package router

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheMemoryCeilingUnderAdversarialInserts pins the LRU's memory
// bound: a stream of large inserts — including entries bigger than the
// whole ceiling — can never push the charged footprint past the
// configured maximum.
func TestCacheMemoryCeilingUnderAdversarialInserts(t *testing.T) {
	const ceiling = 64 << 10
	c := NewCache(ceiling)
	big := make([]byte, 20<<10)
	huge := make([]byte, ceiling) // with key+overhead this exceeds the ceiling outright
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("big-%d", i), 200, big)
		c.Put(fmt.Sprintf("huge-%d", i), 200, huge)
		if got := c.Bytes(); got > ceiling {
			t.Fatalf("insert %d: cache holds %d bytes, ceiling is %d", i, got, ceiling)
		}
	}
	if _, _, ok := c.Get("huge-0"); ok {
		t.Fatal("an entry larger than the whole ceiling was admitted")
	}
	if c.Len() == 0 {
		t.Fatal("ceiling-sized churn evicted everything; want the newest entries resident")
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions recorded under a workload that must evict")
	}
}

// TestCacheLRUOrder pins that eviction removes the least recently used
// entry and that Get refreshes recency.
func TestCacheLRUOrder(t *testing.T) {
	// Three entries of ~1KiB fit; the fourth evicts the stalest.
	entry := make([]byte, 1024)
	c := NewCache(3 * (1024 + 1 + entryOverhead))
	c.Put("a", 200, entry)
	c.Put("b", 200, entry)
	c.Put("c", 200, entry)
	if _, _, ok := c.Get("a"); !ok { // refresh a: b is now the LRU
		t.Fatal("a missing before any eviction")
	}
	c.Put("d", 200, entry)
	if _, _, ok := c.Get("b"); ok {
		t.Fatal("b survived; want it evicted as the least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted; want it resident", k)
		}
	}
}

// TestCacheReplaceAndDisable pins re-insert accounting and the
// disabled (non-positive ceiling) mode.
func TestCacheReplaceAndDisable(t *testing.T) {
	c := NewCache(4 << 10)
	c.Put("k", 200, make([]byte, 1024))
	before := c.Bytes()
	c.Put("k", 422, make([]byte, 512))
	if c.Len() != 1 {
		t.Fatalf("replace duplicated the entry: len=%d", c.Len())
	}
	if c.Bytes() >= before {
		t.Fatalf("replace with a smaller body did not shrink the footprint: %d -> %d", before, c.Bytes())
	}
	if status, _, ok := c.Get("k"); !ok || status != 422 {
		t.Fatalf("replace kept the old answer: ok=%v status=%d", ok, status)
	}

	off := NewCache(-1)
	off.Put("k", 200, []byte("x"))
	if _, _, ok := off.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if off.Bytes() != 0 || off.Len() != 0 {
		t.Fatal("disabled cache retained data")
	}
}

// TestCacheConcurrentAccess exercises the lock under -race: concurrent
// writers churning past the ceiling while readers hit and miss.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(32 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := make([]byte, 2048)
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k-%d", (w*200+i)%64)
				c.Put(key, 200, body)
				c.Get(key)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Bytes(); got > 32<<10 {
		t.Fatalf("concurrent churn broke the ceiling: %d bytes", got)
	}
}
