package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Workloads. Why each exists is stated where it is registered (train.go,
// serve.go). Every performance claim in the repository is measured on them.
// For each layer, the table names the end-to-end metric it should move and
// on which workload, and the workload where it should read zero or not move:
//
//	layer metrics                 moves                       zero / no effect on
//	sched.*, sim.graph_launches,  virtual_ms on               train-papers-ooc (0 captures
//	  sim.compute_idle_ms         train-products                and replays)
//	nccl.* (compute_stream_ms is  virtual_ms on               serve-* (no collectives)
//	  comm not hidden by compute) train-products
//	train.*, spops.busy_ms,       virtual_ms and host_s on    little effect on
//	  nn.busy_ms, sim.kernels,    train-products              train-papers-ooc
//	  sim.flops_g, tensor|autograd|
//	  nn|spops|gnn.cpu_share
//	sampling.*, unique.*          virtual_ms on both train    serve-retrieval (no sampling)
//	                              workloads and on
//	                              serve-products
//	gather.*, cache.hit_rate      virtual_ms and ops_per_s    serve-retrieval (stages
//	                              on serve-products;          queries instead)
//	                              virtual_ms on
//	                              train-papers-ooc
//	featstore.*, topostore.*,     virtual_ms and host_s on    train-products (0 lookups)
//	  blockcache.cpu_share        train-papers-ooc
//	dataset.*, graph.cpu_share,   setup_s on train-products   —
//	  core.cpu_share,             and serve-*; host_s on
//	  store.build_host_s          train-papers-ooc, which
//	                              generates inside epochs
//	infer.*, ann.*                setup_s, virtual_ms and     every other workload (0)
//	                              ops_per_s on serve-retrieval
//	serve.*                       virtual_ms and ops_per_s    train-* (0)
//	                              on both serve workloads
//	sim.wait.<cause>_ms,          where a virtual saving      —
//	  sim.unattributed_ms         shows up
//
// Every run reports every end-to-end metric, so the five are defined for
// each kind of workload:
//
//	setup_s       host seconds until the first measured operation (median of
//	              set-ups made in three windows spread over the run)
//	host_s        least host seconds one unit of measured work took
//	              (train: an epoch after the first; serve: one serve.Run of
//	              the request stream at the reference rate), over a number
//	              of units fixed by --seconds. On a shared machine other
//	              tenants only add time, in episodes lasting seconds to
//	              minutes. Over eight 10 s runs of each serve-products and
//	              train-products on a 2-CPU host, the quartile spread of the
//	              per-run median was 26-55% of its middle value, that of the
//	              minimum 3-8%.
//	rss_mib       resident memory the workload retains: VmRSS once the fixed
//	              measured phase has ended and garbage has been collected and
//	              returned. (The process's VmHWM is not used: where the garbage
//	              collector happens to run moves it by up to 15% between seeds.
//	              The traced run reports it as bench.peak_rss_mib.)
//	virtual_ms    train: median virtual epoch time over the epochs after the
//	              first; serve: virtual p99 latency at the reference rate,
//	              from each request's scheduled arrival, shed and timed-out
//	              requests counted as over any limit
//	ops_per_s     train: training nodes per virtual second at that epoch time;
//	              serve: capacity, the highest offered rate whose p99 meets the
//	              SLO with nothing shed or timed out
//
// So virtual_ms is epoch_virtual_ms on train workloads and p99_ms on serve
// workloads, and ops_per_s is capacity_rps on serve workloads; on train
// workloads ops_per_s is derived from virtual_ms. The other results
// specific to one kind of workload (train_loss, p50_ms, recall_at_10 and
// the sample counts behind them) are printed in every run's table and
// reported with the per-layer metrics under result.*.

// A run builds its workload in three set-up windows: before the measured
// phase, after its fixed part, and at the end. Each window builds at least
// once and again until its builds took setupSeconds or it made
// maxWindowReps of them; only the first window's last build is measured.
// setup_s is the median over all builds: a slow episode of the machine
// that covers one window moves it little, where builds made back to back
// would all fall in the same episode. Cheap set-ups are repeated more
// because a fixed amount of host noise is a larger share of them.
const (
	setupSeconds  = 1.0
	maxWindowReps = 8
)

// minHostUnits is the fewest units of work host_s is the minimum of.
const minHostUnits = 3

// instance is one built workload, ready for its measured phase.
type instance interface {
	// measure runs the fixed measured phase. Its virtual results depend
	// only on the seed; hostUnits are the host seconds of each unit of
	// work it ran that counts toward host_s.
	measure(t *tally, ob *observer) (res *phase, err error)
	// again runs one more unit of the measured work, checking its
	// outputs, and returns its host seconds.
	again(t *tally) (float64, error)
}

// phase is what a measured phase reports.
type phase struct {
	virtualMs, opsPerS float64
	hostUnits          []float64
	hostTotal          float64 // host seconds of the whole fixed phase
	result             *report // result.* metrics (virtual ones must repeat bit for bit)
	layers             *report // per-layer counters read through the public API
}

// workload is a named, parameterised benchmark input.
type workload struct {
	name   string
	params map[string]any
	setup  func(seed int64, ob *observer) (instance, error)
	// unitsPerSecond turns --seconds into the number of units host_s is
	// the minimum of. It is set so that on a 2-CPU host the measured phase
	// lasts about --seconds.
	unitsPerSecond float64
}

// hostUnits is how many units of work host_s is the minimum of. It depends
// only on --seconds, never on how fast the host runs, so every build does
// the same work: a faster build that ran more units would get a lower
// minimum, and on train-papers-ooc later epochs find warmer caches.
func (w *workload) hostUnits(seconds float64) int {
	return max(minHostUnits, int(math.Round(seconds*w.unitsPerSecond)))
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// endToEnd measures with tracing off: the fixed phase once, then further
// units of work until host_s has w.hostUnits(seconds) of them, with the
// set-up windows before, between and after.
func endToEnd(w *workload, seed int64, seconds float64, t *tally) (*report, error) {
	var setups []float64
	inst, err := setUp(w, seed, &setups)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ph, err := inst.measure(t, nil)
	if err != nil {
		return nil, err
	}
	rss, err := retainedRSSMiB()
	if err != nil {
		return nil, err
	}
	if _, err := setUp(w, seed, &setups); err != nil {
		return nil, err
	}
	hosts := ph.hostUnits
	for len(hosts) < w.hostUnits(seconds) {
		h, err := inst.again(t)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	inst = nil
	if _, err := setUp(w, seed, &setups); err != nil {
		return nil, err
	}
	fmt.Printf("%d set-ups, %d measured units in %.1f s\n", len(setups), len(hosts), since(t0))
	fmt.Println("workload results:")
	printTable(ph.result)
	rep := newReport()
	rep.set("setup_s", "s", median(setups))
	rep.set("host_s", "s", slices.Min(hosts))
	rep.set("rss_mib", "MiB", rss)
	rep.set("virtual_ms", "ms", ph.virtualMs)
	rep.set("ops_per_s", "1/s", ph.opsPerS)
	fmt.Println("end-to-end metrics:")
	return rep, nil
}

// setUp is one set-up window: it builds the workload at least once, and
// again until the window's builds took setupSeconds or it made
// maxWindowReps of them, appending each build's host seconds to times. It
// returns the last build.
func setUp(w *workload, seed int64, times *[]float64) (instance, error) {
	var inst instance
	var total float64
	for n := 0; n == 0 || (total < setupSeconds && n < maxWindowReps); n++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		*times = append(*times, since(t0))
		total += since(t0)
	}
	return inst, nil
}

// resultUnits lists the workload-specific results. Every run reports all
// of them, zero where the workload has no such result, so the traced
// run's metric set is the same on every workload. All are virtual-time or
// quality results that depend only on the seed.
var resultUnits = [][2]string{
	{"train_loss", "loss"}, {"first_loss", "loss"}, {"epochs", "count"},
	{"bypass_count", "count"},
	{"ref_rate_rps", "1/s"}, {"p50_ms", "ms"}, {"latency_samples", "count"},
	{"recall_at_10", "ratio"},
}

// layerUnits lists the per-layer counters a workload reads through the
// program's public API (the traced run adds device, span and CPU-profile
// metrics on top). As with resultUnits, every workload reports all of them.
var layerUnits = [][2]string{
	{"sched.captures", "count"}, {"sched.replays", "count"}, {"sched.scheduled", "count"},
	{"sched.fallbacks", "count"}, {"sched.invalidations", "count"},
	{"train.crit_ms", "ms"}, {"train.first_epoch_virtual_ms", "ms"},
	{"train.iters", "count"},
	{"sampling.virtual_ms", "ms"}, {"gather.virtual_ms", "ms"}, {"cache.hit_rate", "ratio"},
	{"featstore.hit_rate", "ratio"}, {"featstore.lookups", "count"}, {"featstore.misses", "count"},
	{"featstore.evictions", "count"}, {"featstore.prefetch_hits", "count"},
	{"featstore.admission_rejects", "count"}, {"featstore.resident_mib", "MiB"},
	{"topostore.hit_rate", "ratio"}, {"topostore.lookups", "count"}, {"topostore.misses", "count"},
	{"topostore.evictions", "count"}, {"topostore.prefetch_hits", "count"},
	{"topostore.admission_rejects", "count"}, {"topostore.resident_mib", "MiB"},
	{"infer.embed_virtual_ms", "ms"}, {"ann.build_virtual_ms", "ms"}, {"ann.remote_gb", "GB"},
	{"serve.queue_wait_p99_ms", "ms"}, {"serve.service_p99_ms", "ms"}, {"serve.mean_batch", "count"},
	{"serve.batches", "count"}, {"serve.coalesced", "count"}, {"serve.shed", "count"},
	{"serve.timed_out", "count"}, {"serve.compute_busy_share", "ratio"},
	{"serve.copy_busy_share", "ratio"},
}

func zeroed(units [][2]string) *report {
	r := newReport()
	for _, u := range units {
		r.set(u[0], u[1], 0)
	}
	return r
}

func newResult() *report { return zeroed(resultUnits) }
func newLayers() *report { return zeroed(layerUnits) }
