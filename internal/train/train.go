// Package train implements the WholeGraph training pipeline of §III: every
// GPU runs one data-parallel worker that samples on-GPU, deduplicates with
// AppendUnique, gathers features through distributed shared memory, trains
// its model replica, and synchronizes gradients with an AllReduce
// (hierarchical NVLink + InfiniBand for multi-node, §III-D).
//
// To keep host cost manageable, the simulation executes a configurable
// number of representative workers for real (default 1) and mirrors their
// measured per-iteration time onto the remaining devices; collectives are
// charged over the full machine. Epoch times and phase breakdowns are
// virtual seconds. Real workers execute on real goroutines between gradient
// synchronization points (sim.RunParallel): each worker owns its device,
// loader and model replica, and the loss/accuracy sums are reduced in
// worker order after the join, so results are bit-identical to serial
// execution regardless of sim.SetParallel.
package train

import (
	"fmt"
	"math/rand"

	"wholegraph/internal/autograd"
	"wholegraph/internal/blockcache"
	"wholegraph/internal/cache"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/featstore"
	"wholegraph/internal/gnn"
	"wholegraph/internal/nn"
	"wholegraph/internal/sched"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/topostore"
)

// Options configures a training run. Zero values take paper defaults via
// Normalize.
type Options struct {
	Arch    string // "gcn", "graphsage", "gat"
	Batch   int
	Fanouts []int
	Hidden  int
	Heads   int
	Dropout float32
	LR      float64
	// WeightDecay enables AdamW-style decoupled decay when non-zero.
	WeightDecay float64
	// ClipNorm clips the global gradient norm per step when positive.
	ClipNorm float64
	Backend  spops.Backend
	Seed     int64
	// RealWorkers is how many data-parallel workers execute for real per
	// node; the rest mirror their timing.
	RealWorkers int
	// MaxItersPerEpoch caps the measured iterations per epoch (0 = full
	// epoch); the epoch time is extrapolated from the measured mean.
	MaxItersPerEpoch int
	// Trace enables busy/idle interval recording on worker 0's device.
	Trace bool
	// Pipeline overlaps batch extraction with model compute: each worker's
	// loader prefetches batch i+1 on its device's copy stream while
	// iteration i runs forward/backward on the compute stream (§IV,
	// Fig. 10). Model state, losses and gradients are bit-identical to the
	// sequential run; only virtual time improves. Ignored when a loader
	// does not implement PrefetchingLoader (the host-memory baselines).
	Pipeline bool
	// CacheRows, when positive, fronts each worker's feature gathers with
	// a degree-ordered hot-node cache of that many rows (internal/cache).
	// Gather values are unchanged; only the local/remote traffic split —
	// and therefore virtual gather time — moves.
	CacheRows int
	// OverlapGrads overlaps gradient synchronization with the backward
	// pass: parameters are bucketed per layer (DDP-style) and each bucket's
	// hierarchical AllReduce is issued on the copy stream the moment
	// backward finalizes its gradients, so communication for one layer
	// hides under the backward compute of the next. Losses, gradients and
	// model state are bit-identical to the blocking path; only virtual time
	// improves. Composes with Pipeline.
	OverlapGrads bool
	// CaptureGraph captures each worker's training step as a replayable
	// graph (CUDA-Graph style): the first iterations on a given batch slot
	// record the op sequence, and subsequent iterations replay it with no
	// tape walk and no per-op dispatch, charging one graph launch in virtual
	// time instead of one launch per kernel. Row counts may vary between
	// replays (shapes are rebound from the live batch); a change of batch
	// structure invalidates the capture and falls back to eager execution
	// with re-capture. Losses, gradients and model state are bit-identical
	// to eager execution. Composes with Pipeline and OverlapGrads.
	CaptureGraph bool
	// Schedule routes each captured step's replay through the whole-step
	// scheduler (internal/sched, DESIGN.md §13): the replay's device charges
	// are recorded into a dependency DAG recovered from the tape's tensor
	// producers and consumers, then list-scheduled onto the compute and copy
	// streams so independent kernels — a Linear's dX and dW backward GEMMs,
	// sibling attention heads — run concurrently. The graph bracket extends
	// over loss and optimizer, so the whole step replays as one launch. Host
	// math still runs in the captured order: losses, gradients and model
	// state are bit-identical to eager execution; a scheduled step is never
	// slower than a plain captured one (the scheduler falls back to the
	// serial order when list scheduling finds no win). Implies CaptureGraph;
	// composes with Pipeline and OverlapGrads.
	Schedule bool
	// BucketBytes is the gradient-bucket coalescing threshold in bytes for
	// OverlapGrads (DDP bucket_cap_mb-style): consecutive parameters are
	// packed into one bucket until it holds at least this many gradient
	// bytes. 0 takes the 256 KiB default.
	BucketBytes int
	// PagedFeatures serves node features from the paged, compressed
	// feature store (internal/featstore) instead of the flat wholemem
	// slab: rows decode out of per-GPU LRU BlockCaches and page misses pay
	// the Unified-Memory fault cost on the copy stream. With the raw
	// encoding losses are bit-identical to the slab path; f16/q8 are
	// lossy and opt-in. Required for out-of-core datasets
	// (dataset.GenerateOutOfCore), whose slab was never materialized.
	PagedFeatures bool
	// FeatEncoding selects the page codec ("raw", "f16", "q8"; default
	// raw). Only meaningful with PagedFeatures.
	FeatEncoding string
	// FeatPageRows is the paged store's rows-per-page (0 = 256).
	FeatPageRows int
	// FeatCacheMB is each GPU's BlockCache budget in MiB (0 = 256).
	FeatCacheMB int
	// PagedTopo serves the CSR column array from the paged topology store
	// (internal/topostore) instead of a resident wholemem array: sampling
	// reads neighbors through a page-aware accessor whose misses pay the
	// Unified-Memory fault cost on the copy stream. Decoded neighbors are
	// bit-identical to the in-memory CSR. Required for out-of-core
	// datasets, whose edge list was never materialized. Incompatible with
	// Weighted datasets (edge weights need a materialized column).
	PagedTopo bool
	// TopoPageEdges is the paged topology store's column entries per page
	// (0 = 4096).
	TopoPageEdges int
	// TopoCacheMB is each GPU's topology BlockCache budget in MiB
	// (0 = 256).
	TopoCacheMB int
	// PrefetchPages, when positive, has each worker predict the paged
	// pages (topology and features) an upcoming batch will touch and fault
	// up to that many of each on the copy stream ahead of compute.
	// Prediction reads only host-visible metadata; batch contents, losses
	// and model state are bit-identical — hit rates and virtual time are
	// the only effect. Under Options.Pipeline the prediction targets the
	// batch one past the in-flight prefetch (whose full build already
	// faults its own pages); sequentially it targets the next batch.
	PrefetchPages int
	// CachePolicy selects the BlockCache replacement policy for both paged
	// stores: "lru" (default) or "admit" (TinyLFU-style frequency sketch
	// that rejects cold pages instead of evicting hot ones). Residency
	// only — decoded values never change.
	CachePolicy string
}

// Normalize fills defaults (paper's §IV settings scaled only where the
// caller overrides them).
func (o Options) Normalize() Options {
	if o.Arch == "" {
		o.Arch = "graphsage"
	}
	if o.Batch == 0 {
		o.Batch = 512
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{30, 30, 30}
	}
	if o.Hidden == 0 {
		o.Hidden = 256
	}
	if o.Heads == 0 {
		o.Heads = 4
	}
	if o.LR == 0 {
		o.LR = 0.003
	}
	if o.RealWorkers == 0 {
		o.RealWorkers = 1
	}
	if o.Schedule {
		o.CaptureGraph = true
	}
	return o
}

// EpochStats reports one epoch of training.
type EpochStats struct {
	Epoch     int
	Iters     int     // iterations per worker this epoch
	EpochTime float64 // virtual seconds, max across devices
	Timing    core.Timing
	Loss      float64 // mean training loss
	TrainAcc  float64 // mean training batch accuracy
}

// BatchLoader produces training batches for one worker device. The
// WholeGraph pipeline uses core.Loader; the host-memory baselines use
// their own loaders (internal/baseline).
type BatchLoader interface {
	// BuildBatch samples, deduplicates and gathers the batch for the given
	// target nodes (original IDs), charging whatever executors it uses.
	BuildBatch(targets []int64) (*gnn.Batch, core.Timing)
	// Device is the GPU the worker trains on.
	Device() *sim.Device
}

// PrefetchingLoader is a BatchLoader that can additionally build the next
// batch on its device's copy stream while compute consumes the current
// one (core.Loader's two-slot ring). Options.Pipeline uses this path when
// every worker's loader implements it; baselines that only BuildBatch run
// sequentially regardless.
type PrefetchingLoader interface {
	BatchLoader
	// Prefetch starts building the batch for targets on the copy stream.
	Prefetch(targets []int64)
	// Collect waits for and returns the prefetched batch.
	Collect() (*gnn.Batch, core.Timing)
	// Release marks the most recently collected batch dead, unblocking
	// reuse of its ring slot.
	Release()
}

// PagePrefetcher is a BatchLoader that can fault the paged-store pages an
// upcoming batch will touch on the copy stream ahead of demand
// (core.Loader over paged stores). Options.PrefetchPages uses this path
// in the sequential loop; loaders without paged stores return 0 from it.
type PagePrefetcher interface {
	// PrefetchPages predicts and faults up to maxPages pages per paged
	// store for the given targets, returning the count actually faulted.
	PrefetchPages(targets []int64, maxPages int) int
}

// Trainer is the data-parallel trainer over a simulated machine. With the
// WholeGraph loader each machine node holds one replica of the graph store
// (§III-D); with a baseline loader the graph lives in host memory.
type Trainer struct {
	Machine *sim.Machine
	Opts    Options
	Stores  []*core.Store // one per node; nil for baseline pipelines
	Models  []gnn.Model   // one per real worker
	Opts4   []*nn.Adam    // optimizer per real worker
	ds      *dataset.Dataset
	loaders []BatchLoader
	caches  []*cache.FeatureCache // per real worker; empty without Options.CacheRows
	shards  [][]int64             // training shard per worker slot (all devices)
	rng     *rand.Rand
	epoch   int

	// tapes holds one arena-backed tape per real worker, Reset at the top of
	// every iteration so the steady state reuses the previous step's tensors.
	// Each tape (and its arena) is owned by its worker's goroutine inside
	// sim.RunParallel, mirroring device ownership.
	tapes []*autograd.Tape
	// averageGradients scratch: the per-replica parameter lists are stable
	// across iterations, as are the per-parameter accumulator shapes.
	avgParams [][]*nn.Param
	avgSums   []*tensor.Dense
	// ov is the gradient-overlap bucket state (Options.OverlapGrads),
	// built lazily by ensureOverlap.
	ov *overlapState
	// gs is the step-graph capture state (Options.CaptureGraph), built
	// lazily by ensureGraphState.
	gs *graphState
	// plans is per-worker scratch for the pipelined loop's scheduler-issued
	// action sequence (sched.PipelinePlan).
	plans [][]sched.PlanStep
}

// New builds a WholeGraph trainer: it partitions the store onto every node
// (charging setup) and instantiates identical model replicas. With
// Options.CacheRows it also builds one degree-ordered feature cache per
// worker, charging the one-time fill.
func New(m *sim.Machine, ds *dataset.Dataset, opts Options) (*Trainer, error) {
	opts = opts.Normalize()
	if ds.Feat == nil && ds.Gen != nil && !opts.PagedFeatures {
		return nil, fmt.Errorf("train: %s is out-of-core; set Options.PagedFeatures", ds.Spec.Name)
	}
	if ds.Graph == nil && !opts.PagedTopo {
		return nil, fmt.Errorf("train: %s is out-of-core (no materialized CSR); set Options.PagedTopo", ds.Spec.Name)
	}
	policy, err := blockcache.ParsePolicy(opts.CachePolicy)
	if err != nil {
		return nil, err
	}
	so := core.StoreOptions{
		PagedFeatures: opts.PagedFeatures,
		PagedTopo:     opts.PagedTopo,
	}
	if opts.PagedFeatures {
		enc, encErr := featstore.ParseEncoding(opts.FeatEncoding)
		if encErr != nil {
			return nil, encErr
		}
		so.Feat = featstore.Options{
			Encoding:   enc,
			PageRows:   opts.FeatPageRows,
			CacheBytes: int64(opts.FeatCacheMB) << 20,
			Policy:     policy,
		}
	}
	if opts.PagedTopo {
		so.Topo = topostore.Options{
			PageEdges:  opts.TopoPageEdges,
			CacheBytes: int64(opts.TopoCacheMB) << 20,
			Policy:     policy,
		}
	}
	var stores []*core.Store
	for n := 0; n < m.Cfg.Nodes; n++ {
		s, err := core.NewStoreOpts(m, n, ds, so)
		if err != nil {
			return nil, err
		}
		stores = append(stores, s)
	}
	var caches []*cache.FeatureCache
	var cacheErr error
	t, err := NewCustom(m, ds, opts, func(w int, dev *sim.Device) BatchLoader {
		ld := core.NewLoader(stores[0], dev, opts.Fanouts, opts.Seed+int64(w))
		if opts.CacheRows > 0 && cacheErr == nil {
			fc, err := cache.NewDegreeCache(stores[0].PG, dev, opts.CacheRows)
			if err != nil {
				cacheErr = err
				return ld
			}
			caches = append(caches, fc)
			ld.WithCache(fc)
		}
		return ld
	})
	if err != nil {
		return nil, err
	}
	if cacheErr != nil {
		return nil, fmt.Errorf("train: building feature cache: %w", cacheErr)
	}
	t.Stores = stores
	t.caches = caches
	return t, nil
}

// NewCustom builds a trainer whose batches come from mkLoader (one loader
// per real worker). It is the extension point the baseline pipelines use.
func NewCustom(m *sim.Machine, ds *dataset.Dataset, opts Options,
	mkLoader func(w int, dev *sim.Device) BatchLoader) (*Trainer, error) {
	opts = opts.Normalize()
	t := &Trainer{Machine: m, Opts: opts, ds: ds, rng: rand.New(rand.NewSource(opts.Seed))}
	cfg := gnn.Config{
		InDim:   ds.Spec.FeatDim,
		Hidden:  opts.Hidden,
		Classes: ds.Spec.NumClasses,
		Layers:  len(opts.Fanouts),
		Heads:   opts.Heads,
		Dropout: opts.Dropout,
		Backend: opts.Backend,
		Seed:    opts.Seed,
	}
	totalWorkers := len(m.Devs)
	t.shards = core.ShardTraining(ds.Train, totalWorkers)
	if opts.RealWorkers > m.Cfg.GPUsPerNode {
		return nil, fmt.Errorf("train: RealWorkers %d > GPUs per node %d", opts.RealWorkers, m.Cfg.GPUsPerNode)
	}
	for w := 0; w < opts.RealWorkers; w++ {
		t.Models = append(t.Models, gnn.New(opts.Arch, cfg))
		opt := nn.NewAdam(opts.LR)
		opt.WeightDecay = opts.WeightDecay
		t.Opts4 = append(t.Opts4, opt)
		dev := m.NodeDevs(0)[w]
		if opts.Trace && w == 0 {
			dev.Tracing = true
		}
		t.loaders = append(t.loaders, mkLoader(w, dev))
		t.tapes = append(t.tapes, autograd.NewTapeArena(tensor.NewArena()))
	}
	return t, nil
}

// Dataset returns the training dataset.
func (t *Trainer) Dataset() *dataset.Dataset { return t.ds }

// ItersPerEpoch returns the iteration count each worker runs per epoch.
func (t *Trainer) ItersPerEpoch() int {
	shard := len(t.shards[0])
	b := t.Opts.Batch
	return (shard + b - 1) / b
}

// Step runs forward/backward/optimizer for one worker on one batch and
// returns (loss, accuracy). All compute is charged to the worker's device.
func Step(model gnn.Model, opt *nn.Adam, dev *sim.Device, b *gnn.Batch, train bool) (float64, float64) {
	tp := autograd.NewTape()
	logits := model.Forward(dev, tp, b, train)
	grad := tensor.New(logits.Value.R, logits.Value.C)
	loss := tensor.CrossEntropy(logits.Value, b.Labels, grad)
	acc := tensor.Accuracy(logits.Value, b.Labels)
	if train {
		tp.Backward(logits, grad)
		opt.Step(dev, model.Params())
	}
	return loss, acc
}

// ensureAvgState builds the stable per-replica parameter lists and the
// per-parameter accumulator slots used by gradient averaging.
func (t *Trainer) ensureAvgState() {
	if t.avgParams == nil {
		t.avgParams = make([][]*nn.Param, len(t.Models))
		for w, mdl := range t.Models {
			t.avgParams[w] = mdl.Params().Params()
		}
		t.avgSums = make([]*tensor.Dense, len(t.avgParams[0]))
	}
}

// averageParam averages parameter pi's gradient across the replicas in
// worker order and writes the mean back into every replica. The overlap
// path calls this per bucket and the blocking path for every parameter, so
// both produce bit-identical gradients.
func (t *Trainer) averageParam(pi int) {
	params := t.avgParams
	var sum *tensor.Dense
	n := 0
	for w := range params {
		g := params[w][pi].Grad()
		if g == nil {
			continue
		}
		if sum == nil {
			if t.avgSums[pi] == nil {
				t.avgSums[pi] = tensor.New(g.R, g.C)
			}
			sum = t.avgSums[pi]
			copy(sum.V, g.V)
		} else {
			tensor.AccumInto(sum, g)
		}
		n++
	}
	if sum == nil {
		return
	}
	tensor.ScaleInto(sum, sum, 1/float32(n))
	for w := range params {
		if g := params[w][pi].Grad(); g != nil {
			copy(g.V, sum.V)
		}
	}
}

// averageGradients replicates data-parallel gradient averaging across the
// real workers (pure math) and charges one blocking full-machine
// hierarchical AllReduce for the model's gradient bytes.
func (t *Trainer) averageGradients() {
	if len(t.Models) > 1 {
		t.ensureAvgState()
		for pi := range t.avgParams[0] {
			t.averageParam(pi)
		}
	}
	bytes := float64(4 * t.Models[0].Params().NumElements())
	sim.HierarchicalAllReduce(t.Machine, bytes)
}

// Pipelined reports whether epochs run the overlapped loader path:
// Options.Pipeline is set and every worker's loader supports prefetching.
func (t *Trainer) Pipelined() bool {
	if !t.Opts.Pipeline {
		return false
	}
	for _, ld := range t.loaders {
		if _, ok := ld.(PrefetchingLoader); !ok {
			return false
		}
	}
	return true
}

// maxComputeTime is the largest compute-stream clock in the machine; the
// pipelined path uses it as the iteration baseline so in-flight copy
// streams (which may run ahead) do not skew the mirror-device charge.
func maxComputeTime(m *sim.Machine) float64 {
	t := 0.0
	for _, d := range m.Devs {
		if n := d.StreamNow(sim.StreamCompute); n > t {
			t = n
		}
	}
	for _, c := range m.CPUs {
		if c.Now() > t {
			t = c.Now()
		}
	}
	return t
}

// RunEpoch trains one epoch and returns its statistics. Per iteration, each
// real worker builds and trains on its own batch; mirror devices are
// advanced by the real workers' mean busy time so machine-level clocks and
// the AllReduce barrier behave as with a full worker set.
//
// With Options.Pipeline and prefetch-capable loaders, each worker collects
// the batch its loader prefetched on the copy stream, immediately issues
// the prefetch of the next batch, and only then runs forward/backward — so
// batch i+1's sample/dedup/gather overlaps iteration i's compute. The real
// (host) execution per worker stays serial and the loader consumes targets
// in the same order, so losses, gradients and model state are bit-identical
// to the sequential path; only the virtual clocks differ.
func (t *Trainer) RunEpoch() EpochStats {
	t.epoch++
	stats := EpochStats{Epoch: t.epoch}
	iters := t.ItersPerEpoch()
	measured := iters
	if t.Opts.MaxItersPerEpoch > 0 && measured > t.Opts.MaxItersPerEpoch {
		measured = t.Opts.MaxItersPerEpoch
	}
	pipelined := t.Pipelined()
	if pipelined && t.plans == nil {
		t.plans = make([][]sched.PlanStep, len(t.Models))
	}
	overlap := t.Opts.OverlapGrads
	if overlap {
		t.ensureOverlap()
	}
	captureGraph := t.Opts.CaptureGraph
	if captureGraph {
		t.ensureGraphState()
	}
	start := t.Machine.MaxTime()
	batches := make([][][]int64, len(t.Models))
	for w := range t.Models {
		batches[w] = core.EpochBatches(t.shards[w], t.Opts.Batch, t.rng)
	}

	var lossSum, accSum float64
	timings := make([]core.Timing, len(t.Models))
	iterDevStart := make([]float64, len(t.Models))
	trainStart := make([]float64, len(t.Models))
	// Per-worker results of one iteration's parallel region; losses and
	// accuracies are reduced in worker order after the join so the sums are
	// bit-identical to serial execution.
	results := make([]stepResult, len(t.Models))
	for it := 0; it < measured; it++ {
		iterStart := t.Machine.MaxTime()
		if pipelined {
			iterStart = maxComputeTime(t.Machine)
		}
		// Forward + backward on every real worker. Workers are independent
		// until the gradient AllReduce: each owns its device, loader, model
		// replica and RNG streams, so they run on real goroutines.
		sim.RunParallel(len(t.Models), func(w int) {
			mdl := t.Models[w]
			dev := t.loaders[w].Device()
			iterDevStart[w] = dev.Now()
			if pipelined {
				// The iteration's issue order — prime, collect, re-arm the
				// ring, optionally page-prefetch further ahead, compute — is a
				// scheduler decision (sched.PipelinePlan).
				pl := t.loaders[w].(PrefetchingLoader)
				pp, hasPP := t.loaders[w].(PagePrefetcher)
				pagePf := t.Opts.PrefetchPages > 0 && hasPP
				t.plans[w] = sched.PipelinePlan(t.plans[w], it, measured, pagePf)
				var b *gnn.Batch
				for _, step := range t.plans[w] {
					targets := batches[w][step.Batch%len(batches[w])]
					switch step.Op {
					case sched.OpPrime, sched.OpPrefetch:
						pl.Prefetch(targets)
					case sched.OpCollect:
						b, timings[w] = pl.Collect()
					case sched.OpPrefetchPages:
						pp.PrefetchPages(targets, t.Opts.PrefetchPages)
					case sched.OpCompute:
						trainStart[w] = dev.Now()
						results[w] = t.trainOn(w, mdl, dev, b, overlap, captureGraph)
					}
				}
				pl.Release()
			} else {
				b, tm := t.loaders[w].BuildBatch(batches[w][it%len(batches[w])])
				// Fault prefetch: predict the pages the NEXT batch will
				// touch and migrate them on the copy stream while this
				// iteration's forward/backward runs on compute.
				if t.Opts.PrefetchPages > 0 {
					if pp, ok := t.loaders[w].(PagePrefetcher); ok {
						if next := it + 1; next < measured {
							pp.PrefetchPages(batches[w][next%len(batches[w])], t.Opts.PrefetchPages)
						}
					}
				}
				timings[w] = tm
				trainStart[w] = dev.Now()
				results[w] = t.trainOn(w, mdl, dev, b, overlap, captureGraph)
			}
		})
		for w := range results {
			lossSum += results[w].loss
			accSum += results[w].acc
		}
		// Mirror the real workers' busy time onto the non-real devices so
		// the AllReduce barrier sees a realistic arrival pattern.
		var busiest float64
		for w := range t.Models {
			if busy := t.loaders[w].Device().Now() - iterStart; busy > busiest {
				busiest = busy
			}
		}
		for _, dev := range t.Machine.Devs {
			if t.isRealWorker(dev) {
				continue
			}
			dev.Kernel(sim.KernelCost{
				FLOPs: busiest * t.Machine.Cfg.Device.FP32TFLOPS * 1e12 * t.Machine.Cfg.Device.GemmEff,
				Tag:   "mirror",
			})
		}
		// Data parallelism: average gradients across replicas, then every
		// worker takes the identical optimizer step on its own replica.
		if overlap {
			t.overlapGradSync()
		} else {
			t.averageGradients()
		}
		sim.RunParallel(len(t.Models), func(w int) {
			mdl := t.Models[w]
			dev := t.loaders[w].Device()
			if overlap {
				// Join this device's compute stream with the completion of
				// its own last gradient bucket on the copy stream.
				dev.WaitEvent(sim.Event{T: t.ov.lastDone[dev.ID]}, "grad-sync")
			}
			if t.Opts.ClipNorm > 0 {
				nn.ClipGradNorm(mdl.Params(), t.Opts.ClipNorm)
			}
			t.Opts4[w].Step(dev, mdl.Params())
			if captureGraph && t.gs.schedOpen[w] {
				// Close the scheduled step's graph bracket: loss, gradient
				// sync and the optimizer all replayed inside it, so the whole
				// step cost one graph launch.
				dev.EndGraphReplay()
				t.gs.schedOpen[w] = false
			}
			timings[w].Train += dev.Now() - trainStart[w]
			// Compute-stream span of the whole iteration: with a sequential
			// loader this equals Sample+Gather+Train; pipelined it is
			// shorter because extraction hides behind compute.
			timings[w].Crit = dev.Now() - iterDevStart[w]
		})
		for w := range t.Models {
			stats.Timing.Add(timings[w])
		}
	}
	stats.Iters = iters
	stats.Loss = lossSum / float64(measured*len(t.Models))
	stats.TrainAcc = accSum / float64(measured*len(t.Models))
	elapsed := t.Machine.MaxTime() - start
	// Extrapolate to the full epoch when iterations were capped, and
	// normalize the phase breakdown to a per-worker view comparable with
	// the epoch time.
	scale := float64(iters) / float64(measured) / float64(len(t.Models))
	stats.EpochTime = elapsed * float64(iters) / float64(measured)
	stats.Timing.Sample *= scale
	stats.Timing.Gather *= scale
	stats.Timing.Train *= scale
	stats.Timing.Crit *= scale
	return stats
}

// trainOn runs the forward/backward step for one worker's batch,
// dispatching to the capture/replay machinery when enabled. Runs inside the
// parallel region.
func (t *Trainer) trainOn(w int, mdl gnn.Model, dev *sim.Device, b *gnn.Batch, overlap, captureGraph bool) stepResult {
	if captureGraph && !t.gs.fallback[w] {
		return t.graphStep(w, mdl, dev, b, overlap)
	}
	return t.eagerStep(w, mdl, dev, b, overlap)
}

func (t *Trainer) isRealWorker(dev *sim.Device) bool {
	for _, ld := range t.loaders {
		if ld.Device() == dev {
			return true
		}
	}
	return false
}

// Evaluate measures accuracy on up to maxNodes of the given split using
// worker 0's model and sampled inference (no dropout), charged to the
// worker's device. Epoch statistics are measured as deltas, so interleaving
// evaluation between epochs does not distort them.
func (t *Trainer) Evaluate(ids []int64, maxNodes int) float64 {
	if len(ids) == 0 {
		return 0
	}
	if maxNodes > 0 && len(ids) > maxNodes {
		ids = ids[:maxNodes]
	}
	model := t.Models[0]
	dev := t.loaders[0].Device()
	var correct, total float64
	for off := 0; off < len(ids); off += t.Opts.Batch {
		end := off + t.Opts.Batch
		if end > len(ids) {
			end = len(ids)
		}
		b, _ := t.loaders[0].BuildBatch(ids[off:end])
		tp := t.tapes[0]
		tp.Reset()
		logits := model.Forward(dev, tp, b, false)
		correct += tensor.Accuracy(logits.Value, b.Labels) * float64(end-off)
		total += float64(end - off)
	}
	return correct / total
}

// EvaluateWithLabels measures accuracy over the given nodes against
// caller-provided ground-truth labels (the synthetic datasets know every
// node's true class, which gives the harness a lower-variance estimate
// than the small held-out splits of a scaled graph).
func (t *Trainer) EvaluateWithLabels(ids []int64, labels []int32) float64 {
	if len(ids) != len(labels) {
		panic(fmt.Sprintf("train: %d ids, %d labels", len(ids), len(labels)))
	}
	if len(ids) == 0 {
		return 0
	}
	model := t.Models[0]
	dev := t.loaders[0].Device()
	var correct, total float64
	for off := 0; off < len(ids); off += t.Opts.Batch {
		end := off + t.Opts.Batch
		if end > len(ids) {
			end = len(ids)
		}
		b, _ := t.loaders[0].BuildBatch(ids[off:end])
		tp := t.tapes[0]
		tp.Reset()
		logits := model.Forward(dev, tp, b, false)
		correct += tensor.Accuracy(logits.Value, labels[off:end]) * float64(end-off)
		total += float64(end - off)
	}
	return correct / total
}

// Predict returns the model's output vectors (logit rows) for the given
// nodes, running sampled inference in evaluation mode on worker 0. Output
// row i corresponds to ids[i]. Downstream tasks such as link prediction use
// the rows as node embeddings.
func (t *Trainer) Predict(ids []int64) [][]float32 {
	out := make([][]float32, 0, len(ids))
	model := t.Models[0]
	dev := t.loaders[0].Device()
	for off := 0; off < len(ids); off += t.Opts.Batch {
		end := off + t.Opts.Batch
		if end > len(ids) {
			end = len(ids)
		}
		b, _ := t.loaders[0].BuildBatch(ids[off:end])
		tp := t.tapes[0]
		tp.Reset()
		logits := model.Forward(dev, tp, b, false)
		for i := 0; i < logits.Value.R; i++ {
			row := make([]float32, logits.Value.C)
			copy(row, logits.Value.Row(i))
			out = append(out, row)
		}
	}
	return out
}

// Worker0Device returns the traced device of the first real worker.
func (t *Trainer) Worker0Device() *sim.Device { return t.loaders[0].Device() }

// Caches returns the per-worker feature caches; empty when the trainer was
// built without Options.CacheRows (or through NewCustom).
func (t *Trainer) Caches() []*cache.FeatureCache { return t.caches }

// CacheStats sums hit/miss counts across the per-worker feature caches.
// Both are zero when no cache is attached.
func (t *Trainer) CacheStats() (hits, misses int64) {
	for _, c := range t.caches {
		hits += c.Hits
		misses += c.Misses
	}
	return hits, misses
}

// FeatStores returns the paged feature stores behind the trainer's stores
// (one per machine node); empty unless Options.PagedFeatures was set.
func (t *Trainer) FeatStores() []*featstore.Store {
	var out []*featstore.Store
	for _, s := range t.Stores {
		if fs := s.FeatStore(); fs != nil {
			out = append(out, fs)
		}
	}
	return out
}

// FeatStoreStats aggregates BlockCache counters across every paged store.
// The zero Stats is returned when the trainer is not paged.
func (t *Trainer) FeatStoreStats() (agg featstore.Stats) {
	for _, fs := range t.FeatStores() {
		agg.Add(fs.Stats())
	}
	return agg
}

// TopoStores returns the paged topology stores behind the trainer's stores
// (one per machine node); empty unless Options.PagedTopo was set.
func (t *Trainer) TopoStores() []*topostore.Store {
	var out []*topostore.Store
	for _, s := range t.Stores {
		if ts := s.TopoStore(); ts != nil {
			out = append(out, ts)
		}
	}
	return out
}

// TopoStoreStats aggregates topology BlockCache counters across every
// paged topology store. The zero Stats is returned when topology is
// resident.
func (t *Trainer) TopoStoreStats() (agg topostore.Stats) {
	for _, ts := range t.TopoStores() {
		agg.Add(ts.Stats())
	}
	return agg
}
