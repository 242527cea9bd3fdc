package topostore

import (
	"testing"

	"wholegraph/internal/sim"
)

// testFill writes a deterministic function of the edge index so decoded
// values are checkable without a backing array.
func testFill(e0, e1 int64, dst []uint64) {
	for e := e0; e < e1; e++ {
		dst[e-e0] = uint64(e)*2654435761 + 7
	}
}

func wantCol(e int64) uint64 { return uint64(e)*2654435761 + 7 }

func newTestStore(t *testing.T, numEdges int64, opts Options) (*Store, *sim.Device) {
	t.Helper()
	s, err := New(numEdges, testFill, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...)
	return s, m.Devs[0]
}

// TestAccessDecodesExact: At returns the fill values bit-exactly across
// page boundaries and the partial last page, resident or not.
func TestAccessDecodesExact(t *testing.T) {
	const numEdges = 1000
	s, dev := newTestStore(t, numEdges, Options{PageEdges: 64}) // partial last page
	if s.NumPages() != 16 {
		t.Fatalf("pages = %d, want 16", s.NumPages())
	}
	acc := s.Begin(dev)
	for _, e := range []int64{0, 1, 63, 64, 65, 500, 960, numEdges - 1} {
		if got := acc.At(e); got != wantCol(e) {
			t.Fatalf("edge %d: %d != %d", e, got, wantCol(e))
		}
	}
	acc.Flush()
	// Repeat after the flush: same values from resident pages.
	acc = s.Begin(dev)
	for e := int64(0); e < numEdges; e++ {
		if got := acc.At(e); got != wantCol(e) {
			t.Fatalf("edge %d after flush: %d != %d", e, got, wantCol(e))
		}
	}
	acc.Flush()
	if got := s.ReadEdge(999); got != wantCol(999) {
		t.Fatalf("ReadEdge: %d != %d", got, wantCol(999))
	}
}

// TestPerDeviceIsolation: each attached device gets its own cache and
// Access scratch; concurrent per-device accesses race-clean and decode
// correct values (run under -race via scripts/check.sh).
func TestPerDeviceIsolation(t *testing.T) {
	s, err := New(8192, testFill, Options{PageEdges: 64})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	devs := m.Devs[:2]
	s.Attach(devs...)
	errs := make(chan error, len(devs))
	sim.RunParallel(len(devs), func(r int) {
		dev := devs[r]
		x := uint64(r)*2654435761 + 99
		for i := 0; i < 200; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			e := int64(x % 8192)
			acc := s.Begin(dev)
			if got := acc.At(e); got != wantCol(e) {
				errs <- nil
				return
			}
			acc.Flush()
		}
	})
	close(errs)
	if len(errs) > 0 {
		t.Fatal("wrong value under concurrent per-device access")
	}
	st := s.Stats()
	if st.Devices != 2 {
		t.Fatalf("devices = %d", st.Devices)
	}
	if st.Hits+st.Misses != 2*200 {
		t.Errorf("lookups %d != %d", st.Hits+st.Misses, 2*200)
	}
}

// TestPrefetchOverlapsAndJoins: a prefetch issued before compute runs on
// the copy stream without blocking it; the first demand batch joins the
// transfer (counted as prefetch hits) and faults nothing.
func TestPrefetchOverlapsAndJoins(t *testing.T) {
	s, dev := newTestStore(t, 4096, Options{PageEdges: 128})

	n := s.PrefetchPages(dev, []int32{0, 1, 2})
	if n != 3 {
		t.Fatalf("prefetched %d pages, want 3", n)
	}
	// The prefetch must not advance the compute stream.
	if now := dev.StreamNow(sim.StreamCompute); now != 0 {
		t.Fatalf("prefetch advanced compute stream to %g", now)
	}
	dev.Kernel(sim.KernelCost{FLOPs: 1e12, Tag: "compute"}) // overlapping work

	acc := s.Begin(dev)
	acc.At(0)   // page 0, prefetched
	acc.At(129) // page 1, prefetched
	if faulted := acc.Flush(); faulted != 0 {
		t.Fatalf("demand batch faulted %d prefetched pages", faulted)
	}
	st := s.Stats()
	if st.PrefetchHits != 2 {
		t.Errorf("prefetch hits = %d, want 2", st.PrefetchHits)
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d after full prefetch coverage", st.Misses)
	}
	// Re-prefetching resident pages is a no-op.
	if n := s.PrefetchPages(dev, []int32{0, 1, 2}); n != 0 {
		t.Errorf("re-prefetch faulted %d resident pages", n)
	}
	// Out-of-range ids are skipped.
	if n := s.PrefetchPages(dev, []int32{-1, 1000}); n != 0 {
		t.Errorf("out-of-range prefetch faulted %d pages", n)
	}
}

// TestPrefetchNoTimeTravel: a demand batch that joins an in-flight
// prefetch never completes before the transfer's ready event.
func TestPrefetchNoTimeTravel(t *testing.T) {
	s, dev := newTestStore(t, 4096, Options{PageEdges: 128})
	s.PrefetchPages(dev, []int32{5})
	ready := dev.StreamNow(sim.StreamCopy)
	if ready <= 0 {
		t.Fatal("prefetch charged nothing on the copy stream")
	}
	acc := s.Begin(dev)
	acc.At(5 * 128)
	acc.Flush()
	if now := dev.StreamNow(sim.StreamCompute); now < ready {
		t.Errorf("demand batch finished at %g before prefetch ready %g", now, ready)
	}
}
