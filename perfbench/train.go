package main

import (
	"math"
	"time"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/train"
)

// trainSpec is a training workload: a dataset shape, a machine size, the
// trainer options, and the number of epochs the virtual results come from.
type trainSpec struct {
	spec      dataset.Spec
	outOfCore bool
	nodes     int
	opts      train.Options
	// epochs is the fixed measured phase; virtual results are medians over
	// epochs 2..epochs, so they do not depend on how fast the host is.
	epochs int
	// unitsPerSecond: see workload.unitsPerSecond. A unit is an epoch.
	unitsPerSecond float64
	// pagedBypass predicts zero paged-store lookups (the in-RAM path);
	// captureBypass predicts zero step-graph captures and replays.
	pagedBypass, captureBypass bool
}

func init() {
	// train-products: the paper's headline path (Table V, Fig. 9). Sampling,
	// AppendUnique, the shared-memory gather, SpMM/GEMM, the whole-step DAG
	// scheduler and the hierarchical NVLink+IB AllReduce are all on the
	// critical path of 2 DGX-A100 nodes (16 GPUs); the paged stores are
	// bypassed.
	registerTrain("train-products", trainSpec{
		spec:  dataset.OgbnProducts.Scaled(0.1),
		nodes: 2,
		opts: train.Options{
			Arch: "graphsage", Fanouts: []int{10, 10, 10}, Hidden: 128, Batch: 256,
			Pipeline: true, OverlapGrads: true, Schedule: true,
		},
		epochs:         6,
		unitsPerSecond: 2.8,
		pagedBypass:    true,
	})
	// train-papers-ooc: a papers100M-shaped graph that is never
	// materialized. Features and topology are paged through per-GPU
	// BlockCaches far smaller than the working set, so virtual time is
	// mostly Unified-Memory page faults and host time is mostly on-demand
	// generation. Eager steps: it is the bypass for the step-graph
	// scheduler, and the mechanism for the store and generation layers.
	registerTrain("train-papers-ooc", trainSpec{
		spec:      dataset.OgbnPapers100M.Scaled(0.01),
		outOfCore: true,
		nodes:     1,
		opts: train.Options{
			Arch: "graphsage", Fanouts: []int{10, 5}, Batch: 512,
			PagedFeatures: true, PagedTopo: true, FeatPageRows: 16,
			FeatCacheMB: 64, TopoCacheMB: 16, CachePolicy: "admit", PrefetchPages: 8,
		},
		epochs:         3,
		unitsPerSecond: 0.25,
		captureBypass:  true,
	})
}

func registerTrain(name string, ts trainSpec) {
	o := ts.opts.Normalize()
	register(&workload{
		name: name,
		params: map[string]any{
			"dataset": ts.spec.Name, "nodes_in_graph": ts.spec.Nodes, "edges": ts.spec.Edges,
			"out_of_core": ts.outOfCore, "machine_nodes": ts.nodes, "gpus": ts.nodes * 8,
			"arch": o.Arch, "fanouts": o.Fanouts, "hidden": o.Hidden, "batch": o.Batch,
			"pipeline": o.Pipeline, "overlap_grads": o.OverlapGrads, "schedule": o.Schedule,
			"paged_features": o.PagedFeatures, "paged_topo": o.PagedTopo,
			"feat_page_rows": o.FeatPageRows, "feat_cache_mib": o.FeatCacheMB,
			"topo_cache_mib": o.TopoCacheMB, "cache_policy": o.CachePolicy,
			"prefetch_pages": o.PrefetchPages, "real_workers": o.RealWorkers,
			"epochs": ts.epochs,
		},
		setup:          func(seed int64, ob *observer) (instance, error) { return ts.build(seed, ob) },
		unitsPerSecond: ts.unitsPerSecond,
	})
}

type trainRun struct {
	ts trainSpec
	m  *sim.Machine
	tr *train.Trainer
	ds *dataset.Dataset
}

// build generates the dataset and builds the trainer; the machine is reset
// afterwards so the measured phase starts at virtual time zero.
func (ts trainSpec) build(seed int64, ob *observer) (*trainRun, error) {
	spec := ts.spec
	spec.Seed = seed
	var ds *dataset.Dataset
	var err error
	if ts.outOfCore {
		end := ob.begin("dataset.GenerateOutOfCore")
		ds, err = dataset.GenerateOutOfCore(spec)
		end()
	} else {
		end := ob.begin("dataset.Generate")
		ds, err = dataset.Generate(spec)
		end()
	}
	if err != nil {
		return nil, err
	}
	m := sim.NewMachine(sim.DGXA100(ts.nodes))
	ob.trace(m)
	opts := ts.opts
	opts.Seed = seed
	end := ob.begin("train.New")
	tr, err := train.New(m, ds, opts)
	end()
	if err != nil {
		return nil, err
	}
	ob.harvest(m.Devs)
	m.Reset()
	return &trainRun{ts: ts, m: m, tr: tr, ds: ds}, nil
}

// epoch runs one epoch and checks it: every iteration is an operation,
// failed when the epoch's loss is not finite (a non-finite loss in any
// iteration makes the epoch mean non-finite, so all of them count).
func (r *trainRun) epoch(t *tally, ob *observer) (train.EpochStats, float64) {
	end := ob.begin("train.RunEpoch")
	t0 := time.Now()
	st := r.tr.RunEpoch()
	host := since(t0)
	end()
	ok := !math.IsNaN(st.Loss) && !math.IsInf(st.Loss, 0)
	for i := 0; i < st.Iters*len(r.tr.Models); i++ {
		t.op(ok)
	}
	r.checkStores(t)
	return st, host
}

// bypassCount reads the counter the workload predicts to be zero: paged
// page lookups on the in-RAM path, step-graph captures plus replays on the
// eager path. Nonzero means the workload no longer isolates its layer.
func (r *trainRun) bypassCount() int64 {
	var n int64
	if r.ts.pagedBypass {
		fs, ts := r.tr.FeatStoreStats(), r.tr.TopoStoreStats()
		n += fs.Hits + fs.Misses + ts.Hits + ts.Misses
	}
	if r.ts.captureBypass {
		g := r.tr.GraphStats()
		n += g.Captures + g.Replays
	}
	return n
}

// checkStores checks the bypass prediction and the cache budgets after
// every epoch. The stores expose only counters summed over their devices,
// so the budget check is on the sum: resident bytes against the per-device
// budget times the number of devices.
func (r *trainRun) checkStores(t *tally) {
	n := r.bypassCount()
	t.check(n == 0, "bypass: %d paged lookups or step-graph captures/replays where none are predicted", n)
	for i, s := range r.tr.FeatStores() {
		st := s.Stats()
		t.check(st.ResidentBytes <= st.CacheBytes*int64(st.Devices),
			"feature store %d: %d resident bytes over its %d x %d budget", i, st.ResidentBytes, st.Devices, st.CacheBytes)
	}
	for i, s := range r.tr.TopoStores() {
		st := s.Stats()
		t.check(st.ResidentBytes <= st.CacheBytes*int64(st.Devices),
			"topology store %d: %d resident bytes over its %d x %d budget", i, st.ResidentBytes, st.Devices, st.CacheBytes)
	}
}

func (r *trainRun) again(t *tally) (float64, error) {
	_, host := r.epoch(t, nil)
	return host, nil
}

func (r *trainRun) measure(t *tally, ob *observer) (*phase, error) {
	t0 := time.Now()
	var stats []train.EpochStats
	var hosts []float64
	for e := 0; e < r.ts.epochs; e++ {
		st, host := r.epoch(t, ob)
		stats = append(stats, st)
		if e > 0 {
			hosts = append(hosts, host)
		}
	}
	ph := &phase{hostUnits: hosts, hostTotal: since(t0), result: newResult(), layers: newLayers()}
	ob.harvest(r.m.Devs)

	first, last := stats[0], stats[len(stats)-1]
	t.check(last.Loss < first.Loss, "last epoch loss %v is not below the first's %v", last.Loss, first.Loss)
	var epochMs, critMs, sampleMs, gatherMs []float64
	for _, st := range stats[1:] {
		epochMs = append(epochMs, st.EpochTime*1e3)
		critMs = append(critMs, st.Timing.Crit*1e3)
		sampleMs = append(sampleMs, st.Timing.Sample*1e3)
		gatherMs = append(gatherMs, st.Timing.Gather*1e3)
	}
	ph.virtualMs = median(epochMs)
	ph.opsPerS = float64(len(r.ds.Train)) / (ph.virtualMs / 1e3)

	res := ph.result
	res.set("train_loss", "loss", last.Loss)
	res.set("first_loss", "loss", first.Loss)
	res.set("epochs", "count", float64(len(stats)))
	res.set("bypass_count", "count", float64(r.bypassCount()))

	l := ph.layers
	g := r.tr.GraphStats()
	l.set("sched.captures", "count", float64(g.Captures))
	l.set("sched.replays", "count", float64(g.Replays))
	l.set("sched.scheduled", "count", float64(g.Scheduled))
	l.set("sched.fallbacks", "count", float64(g.Fallbacks))
	l.set("sched.invalidations", "count", float64(g.Invalidations))
	l.set("train.crit_ms", "ms", median(critMs))
	l.set("train.first_epoch_virtual_ms", "ms", first.EpochTime*1e3)
	l.set("train.iters", "count", float64(last.Iters))
	l.set("sampling.virtual_ms", "ms", median(sampleMs))
	l.set("gather.virtual_ms", "ms", median(gatherMs))
	hits, misses := r.tr.CacheStats()
	if hits+misses > 0 {
		l.set("cache.hit_rate", "ratio", float64(hits)/float64(hits+misses))
	}
	fs, ts := r.tr.FeatStoreStats(), r.tr.TopoStoreStats()
	setStore(l, "featstore", fs.HitRate(), fs.Hits+fs.Misses, fs.Misses, fs.Evictions, fs.PrefetchHits, fs.AdmissionRejects, fs.ResidentBytes)
	setStore(l, "topostore", ts.HitRate(), ts.Hits+ts.Misses, ts.Misses, ts.Evictions, ts.PrefetchHits, ts.AdmissionRejects, ts.ResidentBytes)
	return ph, nil
}

func setStore(l *report, p string, hitRate float64, lookups, misses, evictions, prefetchHits, rejects, resident int64) {
	l.set(p+".hit_rate", "ratio", hitRate)
	l.set(p+".lookups", "count", float64(lookups))
	l.set(p+".misses", "count", float64(misses))
	l.set(p+".evictions", "count", float64(evictions))
	l.set(p+".prefetch_hits", "count", float64(prefetchHits))
	l.set(p+".admission_rejects", "count", float64(rejects))
	l.set(p+".resident_mib", "MiB", float64(resident)/(1<<20))
}
