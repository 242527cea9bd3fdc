package main

import (
	"fmt"
	"math"
	"time"

	"wholegraph/internal/ann"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/infer"
	"wholegraph/internal/serve"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
)

// serveSpec is a serving workload: a dataset shape, a deployment, and the
// open-loop load it is driven with. The load is serve's seeded Poisson
// stream (independent users, so an open loop), replayed at each rate of a
// fixed ladder from unsaturated to past saturation.
type serveSpec struct {
	spec      dataset.Spec
	retrieval bool
	replicas  int
	hidden    int
	opts      serve.Options
	ann       ann.Options
	// ladder holds the offered rates in increasing order; refRate (one of
	// them) is where p50/p99 are reported. Capacity is refined between the
	// highest passing rung and the next by bisect geometric halvings.
	ladder  []float64
	refRate float64
	bisect  int
	// recallFloor is the lowest recall@10 a retrieval run may serve.
	recallFloor float64
	// unitsPerSecond: see workload.unitsPerSecond. A unit is one stream
	// at the reference rate.
	unitsPerSecond float64
}

func init() {
	// serve-products: online node inference. Exercises the dynamic
	// batcher, the cache-aware router, per-request sampling on the copy
	// stream and the hot-node feature cache under Zipf popularity.
	registerServe("serve-products", serveSpec{
		spec:     dataset.OgbnProducts.Scaled(0.05),
		replicas: 4,
		hidden:   32,
		opts: serve.Options{
			Requests: 20000, MaxBatch: 32, MaxDelay: 0.5e-3, SLO: 2e-3, Deadline: 2e-3,
			QueueCap: 256, CacheRows: 500, Fanouts: []int{5, 5}, Skew: 1.3,
			Policy: serve.PolicyCacheAware,
		},
		ladder:         []float64{0.5e6, 1e6, 2e6, 4e6, 8e6, 16e6},
		refRate:        2e6,
		bisect:         6,
		unitsPerSecond: 8.6,
	})
	// serve-retrieval: top-10 nearest-neighbour queries over HNSW built on
	// full-graph GNN embeddings. The only workload that runs infer and ann;
	// batches stage query vectors instead of gathering features.
	registerServe("serve-retrieval", serveSpec{
		spec:      dataset.OgbnProducts.Scaled(0.04),
		retrieval: true,
		replicas:  4,
		hidden:    64,
		opts: serve.Options{
			Requests: 10000, MaxBatch: 16, MaxDelay: 0.2e-3, SLO: 1e-3, Deadline: 1e-3,
			QueueCap: 256, Skew: 1.3, TopK: 10, EfSearch: 32,
		},
		ann:            ann.Options{M: 12, EfConstruction: 100},
		ladder:         []float64{0.5e6, 1e6, 2e6, 4e6, 8e6},
		refRate:        1e6,
		bisect:         5,
		recallFloor:    0.9,
		unitsPerSecond: 0.6,
	})
}

func registerServe(name string, ss serveSpec) {
	o := ss.opts.Normalize()
	p := map[string]any{
		"dataset": ss.spec.Name, "nodes_in_graph": ss.spec.Nodes, "edges": ss.spec.Edges,
		"replicas": ss.replicas, "hidden": ss.hidden, "layers": 2,
		"requests_per_rate": o.Requests, "max_batch": o.MaxBatch, "max_delay_s": o.MaxDelay,
		"slo_s": o.SLO, "deadline_s": o.Deadline, "queue_cap": o.QueueCap, "skew": o.Skew,
		"ladder_rps": ss.ladder, "ref_rate_rps": ss.refRate, "bisect_steps": ss.bisect,
	}
	if ss.retrieval {
		a := ss.ann.Normalize()
		p["topk"], p["ef_search"], p["hnsw_m"], p["ef_construction"] = o.TopK, o.EfSearch, a.M, a.EfConstruction
		p["recall_floor"] = ss.recallFloor
	} else {
		p["cache_rows"], p["fanouts"], p["policy"] = o.CacheRows, o.Fanouts, o.Policy
	}
	register(&workload{
		name:           name,
		params:         p,
		setup:          func(seed int64, ob *observer) (instance, error) { return ss.build(seed, ob) },
		unitsPerSecond: ss.unitsPerSecond,
	})
}

type serveRun struct {
	ss      serveSpec
	m       *sim.Machine
	srv     *serve.Server
	classes int32 // an inference answer is a class in [0, classes)
	// Virtual cost of the retrieval set-up stages (zero for inference).
	embedVirtual, buildVirtual float64
}

// build generates the dataset and builds the deployment (for retrieval:
// store, full-graph embeddings and the HNSW index first). The model is an
// untrained GraphSAGE; serving cost does not depend on its weights.
func (ss serveSpec) build(seed int64, ob *observer) (*serveRun, error) {
	spec := ss.spec
	spec.Seed = seed
	end := ob.begin("dataset.Generate")
	ds, err := dataset.Generate(spec)
	end()
	if err != nil {
		return nil, err
	}
	mcfg := sim.DGXA100(1)
	mcfg.GPUsPerNode = ss.replicas
	m := sim.NewMachine(mcfg)
	ob.trace(m)
	model := gnn.NewSAGE(gnn.Config{
		InDim: ds.Spec.FeatDim, Hidden: ss.hidden, Classes: ds.Spec.NumClasses,
		Layers: 2, Backend: spops.BackendNative, Seed: seed,
	})
	opts := ss.opts
	opts.Seed = seed
	r := &serveRun{ss: ss, m: m, classes: int32(ds.Spec.NumClasses)}
	if !ss.retrieval {
		end = ob.begin("serve.New")
		r.srv, err = serve.New(m, 0, ds, model, opts)
		end()
		if err != nil {
			return nil, err
		}
		ob.harvest(m.Devs)
		m.Reset()
		return r, nil
	}
	end = ob.begin("core.NewStore")
	store, err := core.NewStore(m, 0, ds)
	end()
	if err != nil {
		return nil, err
	}
	ob.harvest(m.Devs)
	m.Reset()
	end = ob.begin("infer.Embeddings")
	emb, err := infer.Embeddings(store, model)
	end()
	if err != nil {
		return nil, err
	}
	r.embedVirtual = m.MaxTime()
	ob.harvest(m.Devs)
	m.Reset()
	ao := ss.ann
	ao.Seed = seed
	end = ob.begin("ann.Build")
	ix, err := ann.Build(store.Comm, emb, ao)
	end()
	if err != nil {
		return nil, err
	}
	r.buildVirtual = m.MaxTime()
	end = ob.begin("serve.NewRetrieval")
	r.srv, err = serve.NewRetrieval(ix, opts)
	end()
	if err != nil {
		return nil, err
	}
	ob.harvest(m.Devs)
	m.Reset()
	return r, nil
}

// rateRun is one offered rate's outcome, checked.
type rateRun struct {
	rate float64
	host float64 // host seconds of the serve.Run call
	// remoteBytes is the peer-memory traffic the replicas' devices counted.
	remoteBytes float64
	res         *serve.Result
	lat         []float64 // per offered request, from scheduled arrival; +Inf if shed or timed out
	p99         float64
	pass        bool // p99 within the SLO and nothing shed or timed out
}

// runAt serves one stream at the given rate from a reset machine and
// checks its outcome accounting.
func (r *serveRun) runAt(rate float64, t *tally, ob *observer) (*rateRun, error) {
	r.srv.Opts.Rate = rate
	r.m.Reset()
	end := ob.begin("serve.Run")
	t0 := time.Now()
	res, err := r.srv.Run()
	host := since(t0)
	end()
	if err != nil {
		return nil, err
	}
	ob.harvest(r.m.Devs)
	rr := &rateRun{rate: rate, host: host, res: res}
	for _, d := range r.m.Devs {
		rr.remoteBytes += d.Stats.RemoteBytes
	}
	t.check(res.Offered == r.srv.Opts.Requests && len(res.Trace) == res.Offered,
		"rate %g: %d offered, %d traced, %d requested", rate, res.Offered, len(res.Trace), r.srv.Opts.Requests)
	t.check(res.Served+res.Shed+res.TimedOut == res.Offered,
		"rate %g: served %d + shed %d + timed out %d != offered %d", rate, res.Served, res.Shed, res.TimedOut, res.Offered)
	ordered, answered := true, true
	for _, q := range res.Trace {
		if q.Outcome != serve.OutcomeServed {
			rr.lat = append(rr.lat, math.Inf(1))
			continue
		}
		if !(q.Arrival <= q.Start && q.Start <= q.Done) {
			ordered = false
		}
		if !r.ss.retrieval && (q.Class < 0 || q.Class >= r.classes) {
			answered = false
		}
		rr.lat = append(rr.lat, q.Done-q.Arrival)
	}
	t.check(ordered, "rate %g: a served request violates arrival <= start <= done", rate)
	t.check(answered, "rate %g: a served request's class is outside [0, %d)", rate, r.classes)
	rr.p99 = nearestRank(rr.lat, 0.99)
	rr.pass = rr.p99 <= r.srv.Opts.SLO && res.Shed == 0 && res.TimedOut == 0
	return rr, nil
}

// countOps counts the reference run's requests as operations: one fails
// when it is shed, timed out or answered after the SLO.
func (r *serveRun) countOps(t *tally, rr *rateRun) {
	for _, l := range rr.lat {
		t.op(l <= r.srv.Opts.SLO)
	}
	if r.ss.retrieval {
		t.check(rr.res.Recall >= r.ss.recallFloor, "recall@10 %v below the %v floor", rr.res.Recall, r.ss.recallFloor)
	}
}

// sweepResult is what the fixed measured phase of a serving workload
// found: the reference-rate run, the capacity, and totals over every run.
type sweepResult struct {
	ref                    *rateRun
	capacity               float64
	shed, timedOut         int
	remoteBytes, hostTotal float64
}

// sweep is the fixed measured phase: every ladder rate, then the capacity
// bisection between the highest passing rung and the next one up.
func (r *serveRun) sweep(t *tally, ob *observer) (*sweepResult, error) {
	t0 := time.Now()
	lo, hi := 0.0, 0.0
	sw := &sweepResult{}
	var runs []*rateRun
	for _, rate := range r.ss.ladder {
		end := ob.begin("sweep.rate")
		rr, err := r.runAt(rate, t, ob)
		end()
		if err != nil {
			return nil, err
		}
		runs = append(runs, rr)
		if rate == r.ss.refRate {
			sw.ref = rr
			r.countOps(t, rr)
		}
	}
	if sw.ref == nil {
		return nil, fmt.Errorf("reference rate %g is not on the ladder", r.ss.refRate)
	}
	for i, rr := range runs {
		if rr.pass {
			lo, hi = rr.rate, 0
			if i+1 < len(runs) {
				hi = runs[i+1].rate
			}
		}
	}
	t.check(!runs[len(runs)-1].pass, "the ladder's top rate %g still meets the SLO", runs[len(runs)-1].rate)
	t.check(lo > 0, "no ladder rate meets the SLO")
	for i := 0; i < r.ss.bisect && lo > 0 && hi > 0; i++ {
		mid := math.Sqrt(lo * hi)
		end := ob.begin("sweep.bisect")
		rr, err := r.runAt(mid, t, ob)
		end()
		if err != nil {
			return nil, err
		}
		runs = append(runs, rr)
		if rr.pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	sw.capacity = lo
	for _, rr := range runs {
		sw.shed += rr.res.Shed
		sw.timedOut += rr.res.TimedOut
		sw.remoteBytes += rr.remoteBytes
	}
	sw.hostTotal = since(t0)
	return sw, nil
}

// again serves one more stream at the reference rate; its host seconds
// are a unit of host_s.
func (r *serveRun) again(t *tally) (float64, error) {
	rr, err := r.runAt(r.ss.refRate, t, nil)
	if err != nil {
		return 0, err
	}
	r.countOps(t, rr)
	return rr.host, nil
}

func (r *serveRun) measure(t *tally, ob *observer) (*phase, error) {
	cacheHits, cacheMisses := r.cacheCounts()
	sw, err := r.sweep(t, ob)
	if err != nil {
		return nil, err
	}
	ref := sw.ref
	ph := &phase{hostUnits: []float64{ref.host}, hostTotal: sw.hostTotal, result: newResult(), layers: newLayers()}
	ph.virtualMs = ref.p99 * 1e3
	ph.opsPerS = sw.capacity

	res := ph.result
	res.set("ref_rate_rps", "1/s", ref.rate)
	res.set("p50_ms", "ms", nearestRank(ref.lat, 0.5)*1e3)
	res.set("latency_samples", "count", float64(len(ref.lat)))
	if r.ss.retrieval {
		res.set("recall_at_10", "ratio", ref.res.Recall)
	}

	l := ph.layers
	var wait, service []float64
	batches := map[[2]int]bool{}
	targets := map[[3]int64]bool{}
	for _, q := range ref.res.Trace {
		if q.Outcome != serve.OutcomeServed {
			continue
		}
		wait = append(wait, q.Start-q.Arrival)
		service = append(service, q.Done-q.Start)
		batches[[2]int{q.Replica, q.Batch}] = true
		targets[[3]int64{int64(q.Replica), int64(q.Batch), q.Node}] = true
	}
	l.set("serve.queue_wait_p99_ms", "ms", nearestRank(wait, 0.99)*1e3)
	l.set("serve.service_p99_ms", "ms", nearestRank(service, 0.99)*1e3)
	l.set("serve.batches", "count", float64(len(batches)))
	l.set("serve.mean_batch", "count", float64(ref.res.Served)/float64(len(batches)))
	l.set("serve.coalesced", "count", float64(ref.res.Served-len(targets)))
	l.set("serve.shed", "count", float64(sw.shed))
	l.set("serve.timed_out", "count", float64(sw.timedOut))
	var busy, copyBusy float64
	for _, st := range ref.res.PerReplica {
		busy += st.BusySeconds
		copyBusy += st.CopyBusySeconds
	}
	span := ref.res.Duration * float64(len(ref.res.PerReplica))
	l.set("serve.compute_busy_share", "ratio", busy/span)
	l.set("serve.copy_busy_share", "ratio", copyBusy/span)
	// Queueing, batching and busy shares are the reference run's; shed,
	// timed-out, cache and remote-byte figures cover the whole sweep.
	if h, m := r.cacheCounts(); h+m > cacheHits+cacheMisses {
		l.set("cache.hit_rate", "ratio", float64(h-cacheHits)/float64(h+m-cacheHits-cacheMisses))
	}
	if r.ss.retrieval {
		// Every remote byte a retrieval replica moves is an index read:
		// query staging and HNSW distance reads of peer shards.
		l.set("ann.remote_gb", "GB", sw.remoteBytes/1e9)
	}
	l.set("infer.embed_virtual_ms", "ms", r.embedVirtual*1e3)
	l.set("ann.build_virtual_ms", "ms", r.buildVirtual*1e3)
	return ph, nil
}

// cacheCounts sums the replicas' hot-node cache counters, which count
// from construction.
func (r *serveRun) cacheCounts() (hits, misses int64) {
	for _, c := range r.srv.Caches() {
		if c != nil {
			hits += c.Hits
			misses += c.Misses
		}
	}
	return hits, misses
}
