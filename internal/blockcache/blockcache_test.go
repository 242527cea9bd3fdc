package blockcache

import (
	"sync"
	"testing"
)

// testBlock mirrors the stores' pages: payload bytes plus 8 of metadata.
type testBlock struct{ payload int64 }

func (b testBlock) CacheBytes() int64 { return b.payload + 8 }

func testPage(bytes int) Block { return testBlock{int64(bytes)} }

func TestBlockCacheLRU(t *testing.T) {
	// Each page costs 100 data bytes + 8 metadata; capacity fits 3.
	c := NewBlockCache(330, PolicyLRU)
	for id := int32(0); id < 3; id++ {
		if c.Get(id) != nil {
			t.Fatalf("page %d resident before put", id)
		}
		c.Put(id, testPage(100))
	}
	st := c.Stats()
	if st.ResidentPages != 3 || st.Misses != 3 || st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("after fill: %+v", st)
	}
	// Touch 0 so 1 becomes LRU; inserting 3 must evict 1.
	if c.Get(0) == nil {
		t.Fatal("page 0 missing")
	}
	c.Put(3, testPage(100))
	if c.Get(1) != nil {
		t.Error("LRU page 1 not evicted")
	}
	for _, id := range []int32{0, 2, 3} {
		if c.Get(id) == nil {
			t.Errorf("page %d evicted unexpectedly", id)
		}
	}
	st = c.Stats()
	if st.Evictions != 1 || st.ResidentPages != 3 {
		t.Errorf("after eviction: %+v", st)
	}
	if st.ResidentBytes != 3*108 {
		t.Errorf("resident bytes %d != %d", st.ResidentBytes, 3*108)
	}
}

// TestBlockCacheOversizedPage: a single page above the budget is admitted
// (gathers must proceed) and evicts everything else.
func TestBlockCacheOversizedPage(t *testing.T) {
	c := NewBlockCache(200, PolicyLRU)
	c.Put(0, testPage(100))
	c.Put(1, testPage(500))
	if c.Get(1) == nil {
		t.Error("oversized page not admitted")
	}
	if c.Get(0) != nil {
		t.Error("page 0 survived an over-budget insert")
	}
}

// TestBlockCacheDoublePut: a racing second put of the same page keeps the
// resident copy and does not double-count bytes.
func TestBlockCacheDoublePut(t *testing.T) {
	c := NewBlockCache(1000, PolicyLRU)
	c.Put(7, testPage(100))
	c.Put(7, testPage(100))
	st := c.Stats()
	if st.ResidentPages != 1 || st.ResidentBytes != 108 {
		t.Errorf("double put: %+v", st)
	}
}

// TestBlockCacheConcurrent hammers one cache from many goroutines; run
// under -race (scripts/check.sh) this is the regression test for the
// cache's locking. Invariants checked after the join: counters add up and
// the resident set respects the budget.
func TestBlockCacheConcurrent(t *testing.T) {
	const (
		workers = 8
		ops     = 2000
		pages   = 64
	)
	c := NewBlockCache(20*108, PolicyLRU) // ~20 resident of 64 hot pages
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			x := uint64(seed)*2654435761 + 1
			for i := 0; i < ops; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				id := int32(x % pages)
				if c.Get(id) == nil {
					c.Put(id, testPage(100))
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*ops {
		t.Errorf("lookups %d != %d", st.Hits+st.Misses, workers*ops)
	}
	if st.ResidentBytes > 20*108 {
		t.Errorf("resident %d over budget", st.ResidentBytes)
	}
	if st.ResidentPages == 0 {
		t.Error("cache empty after hammer")
	}
}
