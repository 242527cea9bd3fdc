// Package bench implements the paper's evaluation: one runner per table and
// figure of §IV, each reproducing the corresponding workload on the
// simulated DGX-A100 and printing the same rows/series the paper reports.
//
// Graphs run at a configurable scale factor (papers100M does not fit in
// host memory at full size) and, in Quick mode, with reduced model sizes so
// the pure-Go training math stays tractable; EXPERIMENTS.md records the
// exact substitutions next to the paper-vs-measured comparison. The
// *shapes* — which system wins, by roughly what factor, where curves
// plateau — are the reproduction target, not absolute seconds.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"wholegraph/internal/baseline"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/train"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies every dataset's node and edge counts (default 1e-3).
	Scale float64
	// Quick shrinks model sizes and iteration counts for CI-speed runs.
	Quick bool
	// Epochs for accuracy experiments (0 = default: 24 full / 8 quick).
	Epochs int
	// Seed fixes all randomness.
	Seed int64
	// Parallel fans independent experiment cells (dataset x model x
	// framework groups) across goroutines. Reported virtual times and
	// printed rows are identical either way: cells share only read-only
	// state, and rows are printed in order after all cells finish.
	Parallel bool
	// Pipeline runs every WholeGraph trainer with cross-iteration batch
	// prefetch on the copy stream (see train.Options.Pipeline). Model math
	// and accuracy are bit-identical; epoch times shrink by the overlap.
	Pipeline bool
	// CacheRows > 0 gives every WholeGraph worker a hot-node feature cache
	// of that many highest-degree rows (see train.Options.CacheRows).
	// Aggregate hit/miss counts are available from CacheCounters.
	CacheRows int
	// OverlapGrads runs every WholeGraph trainer with bucketed gradient
	// AllReduce overlapped into the backward pass on the copy stream (see
	// train.Options.OverlapGrads). Model math and accuracy are
	// bit-identical; epoch times change by the hidden communication.
	OverlapGrads bool
	// CaptureGraph runs every WholeGraph trainer with step capture/replay
	// (see train.Options.CaptureGraph): after the capture warm-up,
	// iterations replay the recorded step DAG with one graph launch instead
	// of per-kernel launches. Model math and accuracy are bit-identical.
	CaptureGraph bool
	// Schedule routes every WholeGraph trainer's replays through the
	// whole-step scheduler (see train.Options.Schedule): the captured step's
	// charges are list-scheduled onto the compute and copy streams from the
	// recovered dependency DAG. Implies CaptureGraph; model math and
	// accuracy are bit-identical.
	Schedule bool
	// PagedFeatures routes every WholeGraph trainer's features through the
	// out-of-core paged store (see train.Options.PagedFeatures): host
	// features live in encoded pages behind per-device LRU BlockCaches,
	// and page misses are priced through the UM/PCIe fault model. With the
	// raw encoding, model math is bit-identical to the flat slab.
	PagedFeatures bool
	// FeatEncoding selects the page encoding ("raw", "f16", "q8"); only
	// meaningful with PagedFeatures. Non-raw encodings are lossy.
	FeatEncoding string
	// FeatPageRows is the rows-per-page of the paged store (0 = default).
	FeatPageRows int
	// FeatCacheMB is each device's BlockCache budget in MiB (0 = default).
	FeatCacheMB int
	// PagedTopo routes every WholeGraph trainer's CSR column array through
	// the paged topology store (see train.Options.PagedTopo): sampling
	// reads neighbors through page-aware accessors, bit-identical to the
	// in-memory CSR.
	PagedTopo bool
	// TopoPageEdges is the column entries per topology page (0 = default).
	TopoPageEdges int
	// TopoCacheMB is each device's topology BlockCache budget in MiB
	// (0 = default).
	TopoCacheMB int
	// PrefetchPages > 0 has each worker fault-prefetch up to that many
	// predicted pages per paged store ahead of compute (see
	// train.Options.PrefetchPages).
	PrefetchPages int
	// CachePolicy is the BlockCache replacement policy for both paged
	// stores: "lru" (default) or "admit".
	CachePolicy string
	// W receives the human-readable report (nil = io.Discard).
	W io.Writer
}

func (c Config) normalize() Config {
	if c.Scale == 0 {
		c.Scale = 1e-3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Epochs == 0 {
		if c.Quick {
			c.Epochs = 8
		} else {
			c.Epochs = 24
		}
	}
	if c.W == nil {
		c.W = io.Discard
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.W, format, args...)
}

// trainOpts returns the training options for the timing experiments. Paper
// parameters (batch 512, fanout 30/30/30, hidden 256) are reported next to
// the substituted values.
func (c Config) trainOpts(arch string) train.Options {
	o := train.Options{
		Arch: arch, Heads: 4, Dropout: 0.5, LR: 0.003, Seed: c.Seed,
		Pipeline: c.Pipeline, CacheRows: c.CacheRows, OverlapGrads: c.OverlapGrads,
		CaptureGraph: c.CaptureGraph, Schedule: c.Schedule,
		PagedFeatures: c.PagedFeatures, FeatEncoding: c.FeatEncoding,
		FeatPageRows: c.FeatPageRows, FeatCacheMB: c.FeatCacheMB,
		PagedTopo: c.PagedTopo, TopoPageEdges: c.TopoPageEdges,
		TopoCacheMB:   c.TopoCacheMB,
		PrefetchPages: c.PrefetchPages, CachePolicy: c.CachePolicy,
	}
	if c.Quick {
		o.Batch = 64
		o.Fanouts = []int{5, 5, 5}
		o.Hidden = 32
		o.MaxItersPerEpoch = 2
	} else {
		o.Batch = 128
		o.Fanouts = []int{10, 10, 10}
		o.Hidden = 64
		o.MaxItersPerEpoch = 4
	}
	return o
}

// accuracyOpts returns smaller options for the convergence experiments
// (full epochs, many of them).
func (c Config) accuracyOpts(arch string) train.Options {
	o := train.Options{
		Arch: arch, Heads: 2, Dropout: 0.3, LR: 0.01, Seed: c.Seed,
		Pipeline: c.Pipeline, CacheRows: c.CacheRows, OverlapGrads: c.OverlapGrads,
		CaptureGraph: c.CaptureGraph, Schedule: c.Schedule,
		PagedFeatures: c.PagedFeatures, FeatEncoding: c.FeatEncoding,
		FeatPageRows: c.FeatPageRows, FeatCacheMB: c.FeatCacheMB,
		PagedTopo: c.PagedTopo, TopoPageEdges: c.TopoPageEdges,
		TopoCacheMB:   c.TopoCacheMB,
		PrefetchPages: c.PrefetchPages, CachePolicy: c.CachePolicy,
	}
	if c.Quick {
		o.Batch = 64
		o.Fanouts = []int{4, 4}
		o.Hidden = 16
	} else {
		o.Batch = 128
		o.Fanouts = []int{5, 5}
		o.Hidden = 32
	}
	return o
}

// datasets returns the four evaluation graphs at the configured scale, in
// paper order.
func (c Config) datasets() []dataset.Spec {
	var out []dataset.Spec
	for _, s := range dataset.All() {
		out = append(out, s.Scaled(c.Scale))
	}
	return out
}

// generate memoizes dataset generation within one harness process. The
// cache is shared by concurrently running experiment cells, hence the lock;
// generated datasets themselves are read-only.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*dataset.Dataset{}
)

func generate(spec dataset.Spec) (*dataset.Dataset, error) {
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[spec.Name]; ok {
		return ds, nil
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		return nil, err
	}
	dsCache[spec.Name] = ds
	return ds, nil
}

// runCells executes n independent experiment cells, concurrently when
// cfg.Parallel is set. Cells must confine writes to their own result slot
// and not touch cfg.W (printing happens after the join, in cell order, so
// reports are byte-identical to a serial run). The lowest-indexed cell
// error is returned, matching what a serial run would have hit first.
//
// In-flight cells are capped at GOMAXPROCS: each cell holds a whole
// simulated machine (up to 64 devices for the multi-node experiments)
// live, so unbounded fan-out inflates the heap and turns into GC time
// instead of speedup once cells outnumber cores.
func (c Config) runCells(n int, fn func(cell int) error) error {
	if !c.Parallel || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Framework identifies a training pipeline in reports.
type Framework string

// The compared pipelines.
const (
	FwPyG        Framework = "PyG"
	FwDGL        Framework = "DGL"
	FwWholeGraph Framework = "WholeGraph"
)

// newTrainer builds the trainer for a framework on a fresh machine.
func newTrainer(fw Framework, nodes int, ds *dataset.Dataset, opts train.Options) (*sim.Machine, *train.Trainer, error) {
	m := sim.NewMachine(sim.DGXA100(nodes))
	var tr *train.Trainer
	var err error
	switch fw {
	case FwPyG:
		tr, err = baseline.New(m, ds, opts, baseline.PyG)
	case FwDGL:
		tr, err = baseline.New(m, ds, opts, baseline.DGL)
	case FwWholeGraph:
		tr, err = train.New(m, ds, opts)
		if err == nil {
			registerCaches(tr.Caches())
			registerPagedStores(tr)
		}
	default:
		err = fmt.Errorf("bench: unknown framework %q", fw)
	}
	if err != nil {
		return nil, nil, err
	}
	registerComm(m)
	m.Reset() // measure training, not store setup
	return m, tr, nil
}

// newStoreTrainer builds a WholeGraph trainer over an existing store
// (used by ablations that customize the store's memory backing).
func newStoreTrainer(m *sim.Machine, store *core.Store, opts train.Options) (*train.Trainer, error) {
	opts = opts.Normalize()
	return train.NewCustom(m, store.DS, opts, func(w int, dev *sim.Device) train.BatchLoader {
		return core.NewLoader(store, dev, opts.Fanouts, opts.Seed+int64(w))
	})
}

// fmtSeconds renders a virtual duration compactly.
func fmtSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.1f us", s*1e6)
	}
}

// sortedKeys returns map keys in sorted order for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// evalSet returns a fixed random node sample with ground-truth labels for
// accuracy evaluation. The scaled datasets have too few held-out labeled
// nodes for a low-variance estimate (papers100M at 1/1000 has ~120 val
// nodes), but the synthetic generator knows every node's true class, so
// the harness evaluates on a larger sample — a luxury the real datasets do
// not offer, noted in EXPERIMENTS.md.
func evalSet(cfg Config, ds *dataset.Dataset, salt int64) ([]int64, []int32) {
	n := 2048
	if cfg.Quick {
		n = 512
	}
	if int64(n) > ds.Spec.Nodes {
		n = int(ds.Spec.Nodes)
	}
	rng := cfg.seededRand(salt)
	ids := make([]int64, 0, n)
	labels := make([]int32, 0, n)
	seen := make(map[int64]bool, n)
	for len(ids) < n {
		v := rng.Int63n(ds.Spec.Nodes)
		if seen[v] {
			continue // target nodes of a batch must be distinct
		}
		seen[v] = true
		ids = append(ids, v)
		labels = append(labels, ds.Spec.Class(v))
	}
	return ids, labels
}

// seededRand builds a deterministic RNG namespaced by the experiment.
func (c Config) seededRand(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1000003 + salt))
}
