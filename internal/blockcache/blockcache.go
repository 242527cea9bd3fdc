// Package blockcache is the paged-store core shared by the out-of-core
// stores, internal/featstore (encoded feature rows) and internal/topostore
// (CSR column ranges), which are thin codecs over it. PageStore owns the
// per-device caches, the demand batch, copy-stream fault and prefetch
// charging, the host-read memo and the stats; BlockCache is the
// byte-budgeted per-device page cache beneath it, with plain LRU
// replacement plus an opt-in TinyLFU-style frequency-sketch admission
// policy, and hit/miss/eviction/prefetch/admission counters.
package blockcache

import (
	"fmt"
	"sync"
)

// Block is a cacheable page payload. CacheBytes is the resident
// footprint charged against the cache budget.
type Block interface {
	CacheBytes() int64
}

// Policy selects the BlockCache replacement/admission policy.
type Policy uint8

// The supported cache policies.
const (
	// PolicyLRU is plain least-recently-used eviction: every faulted page
	// is admitted and the coldest resident page is evicted under pressure.
	PolicyLRU Policy = iota
	// PolicyAdmit adds a TinyLFU-style frequency-sketch admission test on
	// top of LRU: under eviction pressure a candidate page is admitted
	// only if its estimated access frequency exceeds the eviction
	// victim's, so one cold scan cannot flush the hot set. Rejected pages
	// are still served to the requesting gather (the transient copy is
	// used once and dropped), so results never depend on the policy.
	PolicyAdmit
)

// String names the policy as the CLI flags spell it.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyAdmit:
		return "admit"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy resolves a CLI spelling of a cache policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "lru":
		return PolicyLRU, nil
	case "admit", "tinylfu":
		return PolicyAdmit, nil
	}
	return PolicyLRU, fmt.Errorf("blockcache: unknown cache policy %q (want lru or admit)", s)
}

// BlockCache is a byte-budgeted page cache, one per attached device (it
// models that GPU's HBM page pool). Replacement is LRU; PolicyAdmit fronts
// insertion with a frequency-sketch admission test. It is mutex-guarded:
// the store itself is shared read-only across workers, but each device's
// cache mutates on every gather, and sim.RunParallel drives devices from
// separate goroutines.
type BlockCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	sketch   *freqSketch
	entries  map[int32]*blockEntry
	// Doubly-linked LRU list threaded through the entries; head is the
	// most recently used, tail the eviction candidate.
	head, tail *blockEntry

	hits, misses, evictions        int64
	prefetchHits, admissionRejects int64
}

type blockEntry struct {
	id int32
	b  Block
	// prefetched marks an entry inserted ahead of demand; the first
	// demand Get that lands on it counts as a prefetch hit.
	prefetched bool
	prev, next *blockEntry
}

// NewBlockCache creates a cache under policy p bounded to capacityBytes of
// page payload (plus fixed per-page metadata). A single page larger than
// the budget is still admitted — gathers must be able to proceed — so the
// effective floor is one page.
func NewBlockCache(capacityBytes int64, p Policy) *BlockCache {
	c := &BlockCache{capacity: capacityBytes, entries: make(map[int32]*blockEntry)}
	if p == PolicyAdmit {
		c.sketch = newFreqSketch()
	}
	return c
}

// Get returns the cached block and promotes it to most-recently-used, or
// nil on a miss. Hit/miss counters track demand lookups; with PolicyAdmit
// every lookup also feeds the frequency sketch, so repeatedly-missed pages
// build up the estimate that eventually admits them.
func (c *BlockCache) Get(id int32) Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sketch != nil {
		c.sketch.record(id)
	}
	e, ok := c.entries[id]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	if e.prefetched {
		c.prefetchHits++
		e.prefetched = false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.b
}

// Contains reports residency without touching any counter, promotion or
// sketch state — the prefetcher's probe.
func (c *BlockCache) Contains(id int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// Put inserts a freshly faulted-in block as most-recently-used and evicts
// from the LRU tail until the budget holds (never evicting the new block
// itself). Under PolicyAdmit an insert that would evict is first tested
// against the frequency sketch: if the eviction victim is estimated
// hotter than the candidate, the candidate is rejected (returns false)
// and the resident set is untouched. Callers keep using their transient
// copy of a rejected block, so rejection changes cache contents only.
func (c *BlockCache) Put(id int32, b Block) bool {
	return c.insert(id, b, false)
}

// PutPrefetched is Put for pages faulted ahead of demand: the entry is
// marked so the first demand Get on it counts as a prefetch hit.
func (c *BlockCache) PutPrefetched(id int32, b Block) bool {
	return c.insert(id, b, true)
}

func (c *BlockCache) insert(id int32, b Block, prefetched bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		// Another worker faulted the page in between our Get and Put;
		// keep the resident copy (identical bytes — page production is
		// deterministic) and just promote it.
		c.unlink(e)
		c.pushFront(e)
		return true
	}
	if c.sketch != nil && c.tail != nil && c.bytes+b.CacheBytes() > c.capacity {
		// Admission test under eviction pressure: the candidate must beat
		// the victim it would displace.
		if c.sketch.estimate(c.tail.id) > c.sketch.estimate(id) {
			c.admissionRejects++
			return false
		}
	}
	e := &blockEntry{id: id, b: b, prefetched: prefetched}
	c.entries[id] = e
	c.pushFront(e)
	c.bytes += b.CacheBytes()
	for c.bytes > c.capacity && c.tail != nil && c.tail != e {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.id)
		c.bytes -= victim.b.CacheBytes()
		c.evictions++
	}
	return true
}

func (c *BlockCache) pushFront(e *blockEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *BlockCache) unlink(e *blockEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// CacheStats is a point-in-time snapshot of one BlockCache.
type CacheStats struct {
	Counters
	ResidentPages int
	CapacityBytes int64
}

// Stats snapshots the cache counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Counters: Counters{
			Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
			PrefetchHits: c.prefetchHits, AdmissionRejects: c.admissionRejects,
			ResidentBytes: c.bytes,
		},
		ResidentPages: len(c.entries), CapacityBytes: c.capacity,
	}
}
