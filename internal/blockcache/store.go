package blockcache

import (
	"fmt"
	"sync"

	"wholegraph/internal/sim"
)

// Config describes one paged table to NewPageStore: Units elements (feature
// rows, CSR column entries) cut into pages of PageUnits, produced on demand
// by a codec's Fill.
type Config[P Block] struct {
	// Name prefixes the trace tags ("<Name>.fault", "<Name>.prefetch", ...)
	// and panic messages; Unit names one element in range panics.
	Name, Unit string
	Units      int64
	PageUnits  int
	// CacheBytes is each attached device's BlockCache budget (default
	// 256 MiB); Policy its replacement/admission policy.
	CacheBytes int64
	Policy     Policy
	// WorkingSetBytes is the table's virtual footprint: the UM working set
	// the fault-latency model sees.
	WorkingSetBytes int64
	// Fill produces the page covering elements [lo, hi). It must be
	// deterministic — an evicted page refills to identical values, so
	// decoded results never depend on cache history — and safe for
	// concurrent calls.
	Fill func(lo, hi int64) P
}

// PageStore is the paged-store core behind internal/featstore and
// internal/topostore: per-device BlockCaches over on-demand pages, with
// misses paying the Unified-Memory fault dance on the device's copy
// stream (per-page UM fault latency at the table's working-set size, then
// the payload at UM bulk bandwidth) and hits reading local HBM. The
// codecs supply Fill and decode the pages a Batch or Read returns.
//
// The store is immutable after Attach; all mutable state lives in the
// per-device caches (mutex-guarded) and batch scratch (unlocked: like the
// loader's slot ring, each device is driven by one goroutine at a time
// under sim.RunParallel).
type PageStore[P Block] struct {
	cfg              Config[P]
	nPages           int32
	ws               float64 // working set in GB
	demand, prefetch faultTags
	ready, join      string

	// devs is extended only by Attach, before the first access; lookups
	// afterwards are read-only.
	devs []*devPages[P]

	// The host-read memo: the last page Read produced, so sequential
	// host reads don't refill a page per element.
	hostMu sync.Mutex
	hostID int32
	hostPg P
}

// faultTags are the trace tags of one page-in on the copy stream.
type faultTags struct{ issue, fault, pagein string }

// resident is a page as a BlockCache holds it: the codec's payload plus
// the copy-stream event after which it is resident on its device (zero —
// always in the past — for demand faults, which wait inline; set by
// PrefetchPages so a demand hit on an in-flight prefetch joins the
// migration instead of time-traveling).
type resident[P Block] struct {
	page  P
	ready sim.Event
}

func (r *resident[P]) CacheBytes() int64 { return r.page.CacheBytes() }

// devPages is one device's view of the store.
type devPages[P Block] struct {
	dev   *sim.Device
	cache *BlockCache
	batch Batch[P]
}

// NewPageStore builds the core for one table. Attach devices before the
// first access.
func NewPageStore[P Block](cfg Config[P]) *PageStore[P] {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	pu := int64(cfg.PageUnits)
	n := cfg.Name
	return &PageStore[P]{
		cfg:      cfg,
		nPages:   int32((cfg.Units + pu - 1) / pu),
		ws:       float64(cfg.WorkingSetBytes) / 1e9,
		demand:   faultTags{n + ".issue", n + ".fault", n + ".pagein"},
		prefetch: faultTags{n + ".prefetch.issue", n + ".prefetch.fault", n + ".prefetch"},
		ready:    n + ".ready",
		join:     n + ".prefetch.join",
		hostID:   -1,
	}
}

// Attach gives each device its own BlockCache. Call once per device before
// the first access; attaching mid-training would race with lookups.
func (s *PageStore[P]) Attach(devs ...*sim.Device) {
	for _, dev := range devs {
		d := &devPages[P]{dev: dev, cache: NewBlockCache(s.cfg.CacheBytes, s.cfg.Policy)}
		d.batch = Batch[P]{s: s, d: d, pages: make(map[int32]*resident[P])}
		s.devs = append(s.devs, d)
	}
}

// NumPages returns the page count (the last page possibly partial).
func (s *PageStore[P]) NumPages() int { return int(s.nPages) }

// PageOf returns the page holding element u.
func (s *PageStore[P]) PageOf(u int64) int32 { return int32(u / int64(s.cfg.PageUnits)) }

// locate range-checks u and returns its page and offset within the page.
func (s *PageStore[P]) locate(u int64) (int32, int) {
	if u < 0 || u >= s.cfg.Units {
		panic(fmt.Sprintf("%s: %s %d outside [0,%d)", s.cfg.Name, s.cfg.Unit, u, s.cfg.Units))
	}
	id := s.PageOf(u)
	return id, int(u - int64(id)*int64(s.cfg.PageUnits))
}

func (s *PageStore[P]) fill(id int32) *resident[P] {
	lo := int64(id) * int64(s.cfg.PageUnits)
	hi := min(lo+int64(s.cfg.PageUnits), s.cfg.Units)
	return &resident[P]{page: s.cfg.Fill(lo, hi)}
}

func (s *PageStore[P]) devFor(dev *sim.Device) *devPages[P] {
	for _, d := range s.devs {
		if d.dev == dev {
			return d
		}
	}
	panic(fmt.Sprintf("%s: device %d not attached", s.cfg.Name, dev.ID))
}

// Begin opens dev's demand batch: At resolves elements page by page,
// tracking which pages were touched and which missed; Flush charges one
// fault dance for all misses. One batch per device — Begin while a batch
// is open resets it.
func (s *PageStore[P]) Begin(dev *sim.Device) *Batch[P] {
	b := &s.devFor(dev).batch
	b.reset()
	return b
}

// Batch is an open demand batch; see PageStore.Begin.
type Batch[P Block] struct {
	s        *PageStore[P]
	d        *devPages[P]
	pages    map[int32]*resident[P]
	fresh    []*resident[P]
	inflight sim.Event
}

func (b *Batch[P]) reset() {
	clear(b.pages)
	b.fresh = b.fresh[:0]
	b.inflight = sim.Event{}
}

// At returns the page holding element u and u's offset within it. The
// first touch of a page in the batch is one demand lookup: a miss fills
// the page host-side (its virtual-time charge is deferred to Flush), a hit
// on a page a prefetch may still be migrating joins that transfer at
// Flush. The page is the same whether it was resident, missing, or
// rejected by the admission policy (a rejected page still serves this
// batch; only residency for later batches changes).
func (b *Batch[P]) At(u int64) (P, int) {
	id, off := b.s.locate(u)
	r, ok := b.pages[id]
	if !ok {
		r, _ = b.d.cache.Get(id).(*resident[P])
		if r == nil {
			r = b.s.fill(id)
			b.d.cache.Put(id, r)
			b.fresh = append(b.fresh, r)
		} else if r.ready.T > b.inflight.T {
			b.inflight = r.ready
		}
		b.pages[id] = r
	}
	return r.page, off
}

// Flush charges the batch's page faults — one copy-stream fault dance for
// every page missed since Begin or the last Flush — and makes the current
// stream wait for the migration plus any in-flight prefetched page the
// batch touched. Call before the kernel that consumes the decoded values.
// Returns the number of pages faulted.
func (b *Batch[P]) Flush() int {
	dev := b.d.dev
	faulted := len(b.fresh)
	if faulted > 0 {
		dev.WaitEvent(b.s.pageIn(dev, b.fresh, b.s.demand), b.s.ready)
	}
	dev.WaitEvent(b.inflight, b.s.join)
	b.reset()
	return faulted
}

// PrefetchPages faults pages ids into dev's BlockCache ahead of demand.
// It is issued on the copy stream with nothing waiting on it: pages carry
// the transfer's ready event, and the first batch to touch one joins it
// (free if the transfer already finished — the overlap win; a stall only
// if compute caught up with the copy stream). Out-of-range and resident
// pages are skipped without touching the demand counters; under
// PolicyAdmit the sketch can reject a speculative page outright, in which
// case no fault is charged. Returns the number of pages faulted.
func (s *PageStore[P]) PrefetchPages(dev *sim.Device, ids []int32) int {
	cache := s.devFor(dev).cache
	var fresh []*resident[P]
	for _, id := range ids {
		if id < 0 || id >= s.nPages || cache.Contains(id) {
			continue
		}
		if r := s.fill(id); cache.PutPrefetched(id, r) {
			fresh = append(fresh, r)
		}
	}
	if len(fresh) > 0 {
		s.pageIn(dev, fresh, s.prefetch)
	}
	return len(fresh)
}

// pageIn charges the migration of fresh on dev's copy stream, starting no
// earlier than the current stream's issue point, and stamps the pages
// with the returned ready event.
func (s *PageStore[P]) pageIn(dev *sim.Device, fresh []*resident[P], tags faultTags) sim.Event {
	var bytes int64
	for _, r := range fresh {
		bytes += r.CacheBytes()
	}
	issue := dev.RecordEvent()
	prev := dev.SetStream(sim.StreamCopy)
	dev.WaitEvent(issue, tags.issue)
	dev.IdleFor(float64(len(fresh))*dev.UMAccessLatency(s.ws), tags.fault)
	dev.Kernel(sim.KernelCost{UMBytes: float64(bytes), Tag: tags.pagein})
	ready := dev.RecordEvent()
	dev.SetStream(prev)
	for _, r := range fresh {
		r.ready = ready
	}
	return ready
}

// Read is the uncharged host-side path (cache fills, evaluation, host
// neighbor walks): the page holding element u and u's offset, exactly
// what a Batch would return, without touching any device cache.
func (s *PageStore[P]) Read(u int64) (P, int) {
	id, off := s.locate(u)
	s.hostMu.Lock()
	defer s.hostMu.Unlock()
	if s.hostID != id {
		s.hostPg = s.fill(id).page
		s.hostID = id
	}
	return s.hostPg, off
}

// Counters is the demand and prefetch accounting of one or more
// BlockCaches.
type Counters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// PrefetchHits counts demand lookups served by a page that a prefetch
	// faulted in ahead of time (each prefetched page counts at most once).
	PrefetchHits int64 `json:"prefetch_hits"`
	// AdmissionRejects counts candidate pages the PolicyAdmit sketch kept
	// out of the resident set. Always zero under PolicyLRU.
	AdmissionRejects int64 `json:"admission_rejects"`
	ResidentBytes    int64 `json:"resident_bytes"`
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Evictions += o.Evictions
	c.PrefetchHits += o.PrefetchHits
	c.AdmissionRejects += o.AdmissionRejects
	c.ResidentBytes += o.ResidentBytes
}

// HitRate returns the fraction of page lookups served from a BlockCache.
func (c Counters) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// Stats is a paged store's configuration plus its counters summed over
// every attached device. CacheBytes is the per-device budget; a sum of
// stores (Add) sums it per store, not per device.
type Stats struct {
	Pages      int    `json:"pages"`
	CacheBytes int64  `json:"cache_budget_bytes"`
	Devices    int    `json:"devices"`
	Policy     string `json:"policy"`
	Counters
}

// Add accumulates o into st, keeping the first non-empty policy — the
// aggregate of several stores (one per machine node, say).
func (st *Stats) Add(o Stats) {
	if st.Policy == "" {
		st.Policy = o.Policy
	}
	st.Pages += o.Pages
	st.CacheBytes += o.CacheBytes
	st.Devices += o.Devices
	st.Counters.Add(o.Counters)
}

// Stats snapshots the store's configuration and summed counters.
func (s *PageStore[P]) Stats() Stats {
	st := Stats{
		Pages: int(s.nPages), CacheBytes: s.cfg.CacheBytes,
		Devices: len(s.devs), Policy: s.cfg.Policy.String(),
	}
	for _, d := range s.devs {
		st.Counters.Add(d.cache.Stats().Counters)
	}
	return st
}
