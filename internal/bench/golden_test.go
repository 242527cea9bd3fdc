package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wholegraph/internal/blockcache"
)

// The out-of-core experiments are deterministic in virtual time, so their
// numbers can be pinned exactly: any change to the paged stores' charging,
// prefetch selection or cache accounting shows up as a golden diff. Each
// experiment runs once per test binary; its property test and the golden
// test share the run.

// pagedCounters is one paged store's BlockCache accounting after a run, in
// registration order (one entry per paged variant and store kind).
type pagedCounters struct {
	Kind             string
	Hits             int64
	Misses           int64
	Evictions        int64
	PrefetchHits     int64
	AdmissionRejects int64
	ResidentBytes    int64
}

// pagedRun caches one experiment's result and the counters of every paged
// store it built.
type pagedRun[R any] struct {
	once   sync.Once
	result R
	stores []pagedCounters
	err    error
}

var (
	featstoreRun     pagedRun[[]FeatstoreVariantRow]
	featstoreFullRun pagedRun[*FeatstoreFullResult]
	oocGraphRun      pagedRun[[]OOCGraphRow]
)

// get runs the experiment on first use. Tests in this package run
// sequentially and cells run serially under testCfg, so the stores
// registered during the run are exactly this experiment's, in variant
// order.
func (r *pagedRun[R]) get(t *testing.T, run func(Config) (R, error)) (R, []pagedCounters) {
	t.Helper()
	r.once.Do(func() {
		nf, nt := registeredStores()
		r.result, r.err = run(testCfg())
		pagedAgg.Lock()
		defer pagedAgg.Unlock()
		for _, s := range pagedAgg.feat[nf:] {
			r.stores = append(r.stores, counters("feat", s.Stats().Stats))
		}
		for _, s := range pagedAgg.topo[nt:] {
			r.stores = append(r.stores, counters("topo", s.Stats().Stats))
		}
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.result, r.stores
}

func registeredStores() (feat, topo int) {
	pagedAgg.Lock()
	defer pagedAgg.Unlock()
	return len(pagedAgg.feat), len(pagedAgg.topo)
}

func counters(kind string, st blockcache.Stats) pagedCounters {
	return pagedCounters{kind, st.Hits, st.Misses, st.Evictions, st.PrefetchHits, st.AdmissionRejects, st.ResidentBytes}
}

// checkGolden compares result and stores, as indented JSON, with
// testdata/<name>.golden.json. On a mismatch it logs the new JSON;
// replacing the file with it is a deliberate edit.
func checkGolden(t *testing.T, name string, result any, stores []pagedCounters) {
	t.Helper()
	got, err := json.MarshalIndent(struct {
		Result any
		Stores []pagedCounters
	}{result, stores}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s; new values:\n%s", name, path, got)
	}
}

// TestPagedStoresGolden pins the virtual times, losses and page-cache
// counters of the three out-of-core experiments under testCfg.
func TestPagedStoresGolden(t *testing.T) {
	fs, fsStores := featstoreRun.get(t, AblationFeatstore)
	checkGolden(t, "abl-featstore", fs, fsStores)

	full, fullStores := featstoreFullRun.get(t, FeatstoreFull)
	pinned := *full
	pinned.HostRSSBytes, pinned.RSSUnderSlab = 0, false // host-dependent
	checkGolden(t, "featstore-full", pinned, fullStores)

	ooc, oocStores := oocGraphRun.get(t, AblationOOCGraph)
	checkGolden(t, "abl-oocgraph", ooc, oocStores)
}
