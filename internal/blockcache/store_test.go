package blockcache

import (
	"encoding/binary"
	"fmt"
	"testing"

	"wholegraph/internal/sim"
)

// The PageStore suite runs every case once per codec: a feature-page codec
// (fixed-width encoded rows in a byte payload, 8 bytes of page metadata)
// and a column-page codec (uint64 CSR column entries, 16 bytes of
// metadata), the shapes internal/featstore and internal/topostore put on
// the core.

// want is the element value both test codecs encode: a deterministic
// function of the element index, checkable without a backing array.
func want(u int64) uint64 { return uint64(u)*2654435761 + 7 }

type featPage []byte

func (p featPage) CacheBytes() int64 { return int64(len(p)) + 8 }

type colPage []uint64

func (p colPage) CacheBytes() int64 { return int64(len(p))*8 + 16 }

// harness is a PageStore under one codec, with the codec's decode applied.
type harness interface {
	attach(devs ...*sim.Device)
	// access runs one demand batch over units, checking every decoded
	// value, and returns the pages its Flush faulted.
	access(dev *sim.Device, units ...int64) int
	read(u int64) uint64
	prefetch(dev *sim.Device, ids ...int32) int
	stats() Stats
	devStats() []CacheStats
	numPages() int32
}

type store[P Block] struct {
	t      *testing.T
	s      *PageStore[P]
	decode func(P, int) uint64
}

func (h *store[P]) attach(devs ...*sim.Device) { h.s.Attach(devs...) }

func (h *store[P]) access(dev *sim.Device, units ...int64) int {
	b := h.s.Begin(dev)
	for _, u := range units {
		p, off := b.At(u)
		if got := h.decode(p, off); got != want(u) {
			h.t.Errorf("unit %d decoded %d, want %d", u, got, want(u))
		}
	}
	return b.Flush()
}

func (h *store[P]) read(u int64) uint64 {
	p, off := h.s.Read(u)
	return h.decode(p, off)
}

func (h *store[P]) prefetch(dev *sim.Device, ids ...int32) int {
	return h.s.PrefetchPages(dev, ids)
}

func (h *store[P]) stats() Stats    { return h.s.Stats() }
func (h *store[P]) numPages() int32 { return h.s.nPages }

func (h *store[P]) devStats() []CacheStats {
	var out []CacheStats
	for _, d := range h.s.devs {
		out = append(out, d.cache.Stats())
	}
	return out
}

// codec builds a harness over units elements, pageUnits per page; page
// reports the CacheBytes of a full page.
type codec struct {
	name  string
	page  func(pageUnits int) int64
	build func(t *testing.T, cfg Config[Block]) harness
}

var codecs = []codec{
	{
		name: "feature",
		page: func(n int) int64 { return int64(n)*8 + 8 },
		build: func(t *testing.T, cfg Config[Block]) harness {
			return &store[featPage]{t: t, decode: func(p featPage, r int) uint64 {
				return binary.LittleEndian.Uint64(p[8*r:])
			}, s: NewPageStore(Config[featPage]{
				Name: "feat", Unit: "row", Units: cfg.Units, PageUnits: cfg.PageUnits,
				CacheBytes: cfg.CacheBytes, Policy: cfg.Policy, WorkingSetBytes: cfg.Units * 8,
				Fill: func(lo, hi int64) featPage {
					p := make(featPage, 8*(hi-lo))
					for u := lo; u < hi; u++ {
						binary.LittleEndian.PutUint64(p[8*(u-lo):], want(u))
					}
					return p
				},
			})}
		},
	},
	{
		name: "column",
		page: func(n int) int64 { return int64(n)*8 + 16 },
		build: func(t *testing.T, cfg Config[Block]) harness {
			return &store[colPage]{t: t, decode: func(p colPage, i int) uint64 { return p[i] }, s: NewPageStore(Config[colPage]{
				Name: "col", Unit: "edge", Units: cfg.Units, PageUnits: cfg.PageUnits,
				CacheBytes: cfg.CacheBytes, Policy: cfg.Policy, WorkingSetBytes: cfg.Units * 8,
				Fill: func(lo, hi int64) colPage {
					p := make(colPage, hi-lo)
					for u := lo; u < hi; u++ {
						p[u-lo] = want(u)
					}
					return p
				},
			})}
		},
	},
}

// newHarness builds c's store and attaches the first nDevs devices of a
// fresh one-node machine.
func newHarness(t *testing.T, c codec, nDevs int, cfg Config[Block]) (harness, []*sim.Device) {
	t.Helper()
	h := c.build(t, cfg)
	devs := sim.NewMachine(sim.DGXA100(1)).Devs[:nDevs]
	h.attach(devs...)
	return h, devs
}

func TestPageStore(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, c codec)
	}{
		{"miss charged once then hit free", testMissThenHit},
		{"host read uncharged", testHostRead},
		{"prefetch overlaps and joins", testPrefetchJoin},
		{"admission policy wiring", testAdmission},
		{"per-device isolation", testPerDevice},
		{"per-device budget", testBudget},
	}
	for _, c := range codecs {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", c.name, tc.name), func(t *testing.T) { tc.run(t, c) })
		}
	}
}

// testMissThenHit: a batch's distinct missing pages are faulted once, in
// one copy-stream dance the compute stream waits for; a repeat batch hits
// and advances no clock at all.
func testMissThenHit(t *testing.T, c codec) {
	const pu = 64
	h, devs := newHarness(t, c, 1, Config[Block]{Units: 1000, PageUnits: pu}) // partial last page
	dev := devs[0]
	units := []int64{0, 1, pu - 1, pu, 5 * pu, 999}
	if n := h.access(dev, units...); n != 4 {
		t.Fatalf("faulted %d pages, want 4", n)
	}
	st := h.stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("first batch counters %+v", st.Counters)
	}
	ready := dev.StreamNow(sim.StreamCopy)
	if ready <= 0 || dev.StreamNow(sim.StreamCompute) < ready {
		t.Fatalf("fault not charged on the copy stream and joined: copy %g, compute %g",
			ready, dev.StreamNow(sim.StreamCompute))
	}

	compute, copyT := dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy)
	if n := h.access(dev, units...); n != 0 {
		t.Fatalf("repeat batch faulted %d pages", n)
	}
	if dev.StreamNow(sim.StreamCompute) != compute || dev.StreamNow(sim.StreamCopy) != copyT {
		t.Error("a batch of hits advanced a stream")
	}
	if st := h.stats(); st.Misses != 4 || st.Hits != 4 {
		t.Errorf("repeat batch counters %+v", st.Counters)
	}
}

// testHostRead: Read returns what a batch decodes without touching any
// counter or clock.
func testHostRead(t *testing.T, c codec) {
	h, devs := newHarness(t, c, 1, Config[Block]{Units: 300, PageUnits: 37})
	for _, u := range []int64{0, 36, 37, 150, 299, 1} {
		if got := h.read(u); got != want(u) {
			t.Errorf("read %d = %d, want %d", u, got, want(u))
		}
	}
	if st := h.stats(); st.Hits+st.Misses != 0 || devs[0].Now() != 0 {
		t.Errorf("host reads touched device state: %+v, clock %g", st.Counters, devs[0].Now())
	}
}

// testPrefetchJoin: a prefetch runs on the copy stream without blocking
// compute; a demand batch on its pages faults nothing, counts prefetch
// hits and never finishes before the transfer (no time travel); once
// compute has overlapped the transfer, joining it is free.
func testPrefetchJoin(t *testing.T, c codec) {
	const pu = 128
	h, devs := newHarness(t, c, 1, Config[Block]{Units: 4096, PageUnits: pu})
	dev := devs[0]
	if n := h.prefetch(dev, 0, 1, 2); n != 3 {
		t.Fatalf("prefetched %d pages, want 3", n)
	}
	if now := dev.StreamNow(sim.StreamCompute); now != 0 {
		t.Fatalf("prefetch advanced the compute stream to %g", now)
	}
	ready := dev.StreamNow(sim.StreamCopy)
	if ready <= 0 {
		t.Fatal("prefetch charged nothing on the copy stream")
	}
	if n := h.prefetch(dev, 0, 1, 2); n != 0 {
		t.Errorf("re-prefetch faulted %d resident pages", n)
	}
	if n := h.prefetch(dev, -1, h.numPages()); n != 0 {
		t.Errorf("out-of-range prefetch faulted %d pages", n)
	}
	if n := h.access(dev, 0, pu+1); n != 0 {
		t.Fatalf("demand batch faulted %d prefetched pages", n)
	}
	if now := dev.StreamNow(sim.StreamCompute); now < ready {
		t.Errorf("demand batch finished at %g, before the prefetch was ready at %g", now, ready)
	}
	if st := h.stats(); st.PrefetchHits != 2 || st.Misses != 0 {
		t.Errorf("counters after joining the prefetch: %+v", st.Counters)
	}

	h.prefetch(dev, 7)
	dev.Kernel(sim.KernelCost{FLOPs: 1e12, Tag: "overlap"})
	before := dev.StreamNow(sim.StreamCompute)
	if before <= dev.StreamNow(sim.StreamCopy) {
		t.Fatal("overlapping kernel did not outlast the transfer")
	}
	h.access(dev, 7*pu)
	if after := dev.StreamNow(sim.StreamCompute); after != before {
		t.Errorf("joining a finished prefetch cost %g s", after-before)
	}
}

// testAdmission: PolicyAdmit reaches every device's cache — a cold scan is
// rejected and the hot set survives it, rejected pages still decode
// correctly for their batch, and a rejected prefetch is not charged.
func testAdmission(t *testing.T, c codec) {
	const pu = 64
	h, devs := newHarness(t, c, 1, Config[Block]{Units: pu * 300, PageUnits: pu,
		CacheBytes: 4 * c.page(pu), Policy: PolicyAdmit})
	dev := devs[0]
	for round := 0; round < 30; round++ {
		h.access(dev, 0, pu, 2*pu, 3*pu)
	}
	for p := int64(4); p < 300; p++ {
		h.access(dev, p*pu)
	}
	st := h.stats()
	if st.AdmissionRejects == 0 || st.Policy != "admit" {
		t.Fatalf("cold scan under admit: policy %q, %+v", st.Policy, st.Counters)
	}
	if n := h.access(dev, 0, pu, 2*pu, 3*pu); n != 0 {
		t.Errorf("cold scan evicted %d hot pages", n)
	}
	copyT := dev.StreamNow(sim.StreamCopy)
	if n := h.prefetch(dev, 299); n != 0 || dev.StreamNow(sim.StreamCopy) != copyT {
		t.Errorf("rejected prefetch faulted %d pages, copy stream %g -> %g", n, copyT, dev.StreamNow(sim.StreamCopy))
	}
}

// testPerDevice: each device has its own cache — one device's faults warm
// nothing and charge nothing on another — and concurrent per-device
// batches decode correctly and race-clean.
func testPerDevice(t *testing.T, c codec) {
	const pu = 64
	h, devs := newHarness(t, c, 2, Config[Block]{Units: 8192, PageUnits: pu})
	h.access(devs[0], 0)
	h.access(devs[0], 1)
	if devs[1].Now() != 0 {
		t.Fatal("device 0's faults charged device 1")
	}
	if n := h.access(devs[1], 2); n != 1 {
		t.Errorf("device 1 faulted %d pages on a page only device 0 holds, want 1", n)
	}
	if st := h.stats(); st.Devices != 2 || st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("cross-device stats: devices %d, %+v", st.Devices, st.Counters)
	}

	sim.RunParallel(len(devs), func(r int) {
		x := uint64(r)*2654435761 + 99
		for i := 0; i < 200; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.access(devs[r], int64(x%8192))
		}
	})
	if st := h.stats(); st.Hits+st.Misses != 3+2*200 {
		t.Errorf("lookups %d, want %d", st.Hits+st.Misses, 3+2*200)
	}
}

// testBudget: under eviction churn every device's resident bytes stay
// within its own budget, while values stay exact; a budget below one page
// still admits that one page (the documented single-page floor) and no
// more.
func testBudget(t *testing.T, c codec) {
	const pu = 64
	budget := 3 * c.page(pu)
	h, devs := newHarness(t, c, 2, Config[Block]{Units: 4096, PageUnits: pu, CacheBytes: budget})
	for r, dev := range devs {
		x := uint64(12345 + r)
		for i := 0; i < 300; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.access(dev, int64(x%4096), int64((x>>20)%4096))
		}
	}
	st := h.stats()
	if st.Evictions == 0 || st.CacheBytes != budget {
		t.Errorf("churn under a 3-page budget: budget %d, %+v", st.CacheBytes, st.Counters)
	}
	for r, cs := range h.devStats() {
		if cs.ResidentBytes > budget || cs.CapacityBytes != budget {
			t.Errorf("device %d: %d resident bytes over its %d budget (capacity %d)", r, cs.ResidentBytes, budget, cs.CapacityBytes)
		}
	}

	tiny, devs := newHarness(t, c, 1, Config[Block]{Units: 4096, PageUnits: pu, CacheBytes: 1})
	for _, u := range []int64{0, pu, 2 * pu} {
		tiny.access(devs[0], u)
		if cs := tiny.devStats()[0]; cs.ResidentPages != 1 || cs.ResidentBytes != c.page(pu) {
			t.Errorf("1-byte budget after unit %d: %d pages, %d bytes resident, want the one-page floor", u, cs.ResidentPages, cs.ResidentBytes)
		}
	}
}
