// Command wgbench regenerates the WholeGraph paper's evaluation: every
// table (I-V) and figure (7-13) of §IV, plus the shared-memory setup
// microbenchmark, on the simulated DGX-A100.
//
// Usage:
//
//	wgbench -exp all                 # everything, default scale 1/1000
//	wgbench -exp table5 -scale 0.002 # one experiment at a custom scale
//	wgbench -exp fig8,fig10 -quick   # fast pass with reduced models
//	wgbench -exp table3 -parallel    # fan independent cells across cores
//	wgbench -exp all -json out.json  # machine-readable results
//	wgbench -exp fig9 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	wgbench -exp table5 -pipeline -cache-rows 500  # overlapped loaders + feature cache
//	wgbench -exp abl-overlap-grads -overlap-grads  # bucketed gradient/backward overlap
//
// Reported times are virtual seconds from the machine simulation; see
// EXPERIMENTS.md for the paper-vs-measured comparison and the scaling
// substitutions. -parallel changes only wall-clock time: printed rows and
// virtual seconds are identical to a serial run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wholegraph/internal/bench"
	"wholegraph/internal/blockcache"
)

var experiments = []struct {
	name string
	desc string
	run  func(bench.Config) (any, error)
}{
	{"table1", "UM vs GPUDirect P2P access latency", wrap(bench.Table1)},
	{"table2", "evaluation datasets", wrap(bench.Table2)},
	{"table3", "accuracy parity across frameworks", wrap(bench.Table3)},
	{"table4", "memory usage for ogbn-papers100M", wrap(bench.Table4)},
	{"table5", "epoch time and speedups", wrap(bench.Table5)},
	{"fig7", "validation accuracy curves (DGL vs WholeGraph)", wrap(bench.Fig7)},
	{"fig8", "random gather bandwidth vs segment size", wrap(bench.Fig8)},
	{"fig9", "epoch time breakdown", wrap(bench.Fig9)},
	{"fig10", "shared-memory vs NCCL-based gather", wrap(bench.Fig10)},
	{"fig11", "native vs third-party GNN layers", wrap(bench.Fig11)},
	{"fig12", "GPU utilization over time", wrap(bench.Fig12)},
	{"fig13", "multi-node scaling", wrap(bench.Fig13)},
	{"setup", "shared-memory setup cost", wrap(bench.Setup)},
	{"abl-storage", "ablation: P2P vs UM vs pinned-host feature storage", wrap(bench.AblationStorage)},
	{"abl-unique", "ablation: hash-table vs sort AppendUnique", wrap(bench.AblationUnique)},
	{"abl-dedup", "ablation: gather with vs without deduplication", wrap(bench.AblationDedup)},
	{"infer", "offline inference: sampled vs full-graph layer-wise", wrap(bench.Inference)},
	{"abl-cache", "ablation: hot-node feature cache sizes", wrap(bench.AblationCache)},
	{"abl-hw", "ablation: NVSwitch vs PCIe-only fabric", wrap(bench.AblationHardware)},
	{"abl-part", "ablation: hash vs range vs community node placement", wrap(bench.AblationPartition)},
	{"abl-pipeline", "ablation: cross-iteration batch prefetch vs sequential", wrap(bench.AblationPipeline)},
	{"abl-overlap-grads", "ablation: bucketed gradient AllReduce overlapped with backward", wrap(bench.AblationOverlapGrads)},
	{"abl-graph", "ablation: step capture/replay vs eager per-kernel dispatch", wrap(bench.AblationGraph)},
	{"abl-sched", "ablation: whole-step DAG scheduling vs plain capture/replay", wrap(bench.AblationSched)},
	{"abl-featstore", "ablation: flat slab vs paged+encoded out-of-core feature store", wrap(bench.AblationFeatstore)},
	{"abl-oocgraph", "ablation: in-RAM CSR vs paged topology with prefetch and admission", wrap(bench.AblationOOCGraph)},
	{"featstore-full", "out-of-core papers100M: paged features and topology at full scale", wrap(bench.FeatstoreFull)},
	{"analytics", "PageRank and connected components over the shared store", wrap(bench.Analytics)},
	{"graphclass", "graph classification: GIN on topology motifs", wrap(bench.GraphClass)},
	{"serving", "online serving: dynamic batching vs batch=1", wrap(bench.Serving)},
	{"abl-ann", "ANN retrieval: HNSW recall-vs-latency sweep vs brute-force, plus serving", wrap(bench.AblationANN)},
}

func wrap[T any](f func(bench.Config) (T, error)) func(bench.Config) (any, error) {
	return func(cfg bench.Config) (any, error) {
		return f(cfg)
	}
}

// jsonReport is the -json output: run metadata plus one entry per executed
// experiment with its typed result rows (virtual seconds live inside them)
// and the host wall-clock the experiment took.
type jsonReport struct {
	Scale       float64                   `json:"scale"`
	Quick       bool                      `json:"quick"`
	Epochs      int                       `json:"epochs"`
	Seed        int64                     `json:"seed"`
	Parallel    bool                      `json:"parallel"`
	Pipeline    bool                      `json:"pipeline"`
	CacheRows   int                       `json:"cache_rows"`
	OverlapG    bool                      `json:"overlap_grads"`
	CaptureG    bool                      `json:"capture_graph"`
	Schedule    bool                      `json:"schedule"`
	PagedFeat   bool                      `json:"paged_features"`
	FeatEnc     string                    `json:"feat_encoding,omitempty"`
	PagedTopo   bool                      `json:"paged_topo"`
	PrefetchPgs int                       `json:"prefetch_pages,omitempty"`
	CachePolicy string                    `json:"cache_policy,omitempty"`
	CacheHits   int64                     `json:"cache_hits"`
	CacheMisses int64                     `json:"cache_misses"`
	CacheHit    float64                   `json:"cache_hit_rate"`
	FeatStore   *jsonStore                `json:"featstore,omitempty"`
	TopoStore   *jsonStore                `json:"topostore,omitempty"`
	Graph       *bench.GraphCounterTotals `json:"graph_counters,omitempty"`
	NVLinkTxGB  float64                   `json:"nvlink_tx_gb"`
	IBTxGB      float64                   `json:"ib_tx_gb"`
	CommSeconds float64                   `json:"comm_seconds"`
	GOMAXPROCS  int                       `json:"gomaxprocs"`
	StartedAt   time.Time                 `json:"started_at"`
	WallSeconds float64                   `json:"wall_seconds"`
	Experiments []jsonExperiment          `json:"experiments"`
}

// jsonStore is the aggregate BlockCache accounting for one paged-store kind
// (features or topology) across every trainer the run built.
type jsonStore struct {
	blockcache.Counters
	HitRate float64 `json:"hit_rate"`
}

// storeReport prints one paged-store kind's aggregate counters and returns
// its -json block; nil when the run built no store of that kind.
func storeReport(kind string, c blockcache.Counters) *jsonStore {
	if c.Hits+c.Misses == 0 {
		return nil
	}
	fmt.Printf("%s store: %d page hits / %d misses (%.1f%% hit rate), %d evictions, %d prefetch hits, %d admission rejects, %.1f MiB resident\n",
		kind, c.Hits, c.Misses, 100*c.HitRate(), c.Evictions,
		c.PrefetchHits, c.AdmissionRejects, float64(c.ResidentBytes)/(1<<20))
	return &jsonStore{Counters: c, HitRate: c.HitRate()}
}

type jsonExperiment struct {
	Name        string  `json:"name"`
	Desc        string  `json:"desc"`
	WallSeconds float64 `json:"wall_seconds"`
	Result      any     `json:"result"`
}

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiments (all, "+names()+")")
		scale      = flag.Float64("scale", 1e-3, "dataset scale factor vs the paper's full-size graphs")
		quick      = flag.Bool("quick", false, "reduced model sizes and iteration counts")
		epochs     = flag.Int("epochs", 0, "epochs for accuracy experiments (0 = default)")
		seed       = flag.Int64("seed", 1, "random seed")
		parallel   = flag.Bool("parallel", false, "run independent experiment cells on parallel goroutines (identical output, less wall-clock)")
		pipeline   = flag.Bool("pipeline", false, "overlap batch building with training on each device's copy stream (identical math, shorter virtual epochs)")
		cacheRows  = flag.Int("cache-rows", 0, "per-worker hot-node feature cache size in rows (0 = no cache)")
		overlapG   = flag.Bool("overlap-grads", false, "overlap bucketed gradient AllReduce with backward on the copy stream (identical math, different virtual epochs)")
		captureG   = flag.Bool("capture-graph", false, "capture the training step once per loader slot and replay it graph-launch style (identical math, shorter virtual epochs)")
		schedule   = flag.Bool("schedule", false, "replay captured steps through the whole-step DAG scheduler (implies -capture-graph; identical math, shorter virtual epochs)")
		pagedF     = flag.Bool("paged-features", false, "serve features from the out-of-core paged store (bit-identical math with raw encoding)")
		featEnc    = flag.String("feat-encoding", "", "paged-store page encoding: raw, f16, q8 (lossy below raw)")
		featPgRows = flag.Int("feat-page-rows", 0, "paged-store rows per page (0 = default)")
		featCache  = flag.Int("feat-cache-mb", 0, "paged-store per-device BlockCache budget in MiB (0 = default)")
		pagedT     = flag.Bool("paged-topo", false, "serve the CSR column array from the paged topology store (bit-identical sampling)")
		topoPgEdge = flag.Int("topo-page-edges", 0, "topology-store column entries per page (0 = default)")
		topoCache  = flag.Int("topo-cache-mb", 0, "topology-store per-device BlockCache budget in MiB (0 = default)")
		prefetchPg = flag.Int("prefetch-pages", 0, "fault-prefetch up to this many predicted pages per paged store ahead of each batch (0 = off)")
		cachePol   = flag.String("cache-policy", "", "paged-store BlockCache policy: lru (default) or admit (frequency-aware admission)")
		jsonPath   = flag.String("json", "", "also write machine-readable results to this path")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this path")
		memProf    = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}

	cfg := bench.Config{
		Scale: *scale, Quick: *quick, Epochs: *epochs, Seed: *seed,
		Parallel: *parallel, Pipeline: *pipeline, CacheRows: *cacheRows,
		OverlapGrads: *overlapG, CaptureGraph: *captureG, Schedule: *schedule,
		PagedFeatures: *pagedF, FeatEncoding: *featEnc,
		FeatPageRows: *featPgRows, FeatCacheMB: *featCache,
		PagedTopo: *pagedT, TopoPageEdges: *topoPgEdge, TopoCacheMB: *topoCache,
		PrefetchPages: *prefetchPg, CachePolicy: *cachePol,
		W: os.Stdout,
	}
	want := map[string]bool{}
	for _, n := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(n)] = true
	}
	report := jsonReport{
		Scale: *scale, Quick: *quick, Epochs: *epochs, Seed: *seed,
		Parallel: *parallel, Pipeline: *pipeline, CacheRows: *cacheRows,
		OverlapG: *overlapG, CaptureG: *captureG, Schedule: *schedule,
		PagedFeat: *pagedF, FeatEnc: *featEnc,
		PagedTopo: *pagedT, PrefetchPgs: *prefetchPg, CachePolicy: *cachePol,
		GOMAXPROCS: runtime.GOMAXPROCS(0), StartedAt: time.Now(),
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wgbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "wgbench: writing heap profile: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	start := time.Now()
	ran := 0
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		t0 := time.Now()
		res, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		wall := time.Since(t0)
		fmt.Printf("[%s done in %v]\n\n", e.name, wall.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, jsonExperiment{
			Name: e.name, Desc: e.desc, WallSeconds: wall.Seconds(), Result: res,
		})
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "wgbench: no experiment matched %q (use -list)\n", *exp)
		os.Exit(2)
	}
	if hits, misses := bench.CacheCounters(); hits+misses > 0 {
		report.CacheHits, report.CacheMisses = hits, misses
		report.CacheHit = float64(hits) / float64(hits+misses)
		fmt.Printf("feature cache: %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*report.CacheHit)
	}
	feat, topo := bench.PagedStoreStats()
	report.FeatStore = storeReport("feature", feat.Counters)
	report.TopoStore = storeReport("topology", topo.Counters)
	if g := bench.GraphCountersTotal(); g.Captures+g.Replays+g.Fallbacks > 0 {
		report.Graph = &g
		fmt.Printf("step graphs: %d captures / %d replays (%d scheduled), %d invalidations, %d fallbacks\n",
			g.Captures, g.Replays, g.Scheduled, g.Invalidations, g.Fallbacks)
	}
	if nvlink, ib, comm := bench.CommCounters(); comm > 0 {
		report.NVLinkTxGB = nvlink / 1e9
		report.IBTxGB = ib / 1e9
		report.CommSeconds = comm
		fmt.Printf("collectives: %.3f GB NVLink, %.3f GB IB, %s stream time\n",
			nvlink/1e9, ib/1e9, (time.Duration(comm * float64(time.Second))).Round(time.Microsecond))
	}
	if *jsonPath != "" {
		report.WallSeconds = time.Since(start).Seconds()
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: encoding -json report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d experiment results to %s\n", ran, *jsonPath)
	}
}

func names() string {
	var n []string
	for _, e := range experiments {
		n = append(n, e.name)
	}
	return strings.Join(n, ", ")
}
