// Package serve implements online GNN inference serving over the
// distributed shared-memory store — the request-driven counterpart of the
// offline pipelines in internal/train and internal/infer.
//
// The paper's argument is that irregular feature gathering dominates GNN
// workloads (Figure 8), and an online serving layer exercises exactly that
// cost under open-loop load: each request asks for the model's prediction
// on one seed node, which requires sampling its multi-hop neighborhood,
// deduplicating it, gathering the input features through peer access, and
// running a layer-wise forward. The subsystem simulates, in virtual time:
//
//   - a seeded open-loop request generator (Poisson arrivals, optionally
//     Zipf-skewed toward high-degree nodes),
//   - static cache-aware routing across the replicas (one per GPU of the
//     store's node),
//   - a per-replica dynamic batcher that coalesces queued requests until
//     MaxBatch requests are waiting or the oldest has waited MaxDelay,
//   - admission control: a bounded per-replica queue that sheds arrivals
//     when full, plus per-request deadlines that drop requests whose
//     deadline passed before their batch launched,
//   - batch execution that reuses the training loader's sample/dedup/
//     gather chain and the model forward, with each batch's build running
//     on the device's copy stream so it overlaps the previous batch's
//     forward on the compute stream (the PR-3 dual-stream model).
//
// Everything is deterministic: the same seed and options produce a
// bit-identical request trace and latency percentiles, whether the
// replicas run serially or on real goroutines under sim.RunParallel.
package serve

import (
	"fmt"
	"math/rand"
	"sort"

	"wholegraph/internal/ann"
	"wholegraph/internal/autograd"
	"wholegraph/internal/blockcache"
	"wholegraph/internal/cache"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/featstore"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Policy selects how arriving requests are routed to replicas. All
// policies are static (computable from the request alone plus a running
// counter), which keeps the per-replica serving loops independent and
// lets them run under sim.RunParallel.
type Policy string

const (
	// PolicyCacheAware routes hot nodes — whose feature rows every
	// non-owner replica caches — round-robin across all replicas, and
	// cold nodes to the rank that owns their feature shard. With no cache
	// configured it degrades to PolicyOwner.
	PolicyCacheAware Policy = "cache"
	// PolicyOwner routes every request to the rank owning the seed
	// node's feature row (the hash partition balances load in
	// expectation and the seed row gather is always local).
	PolicyOwner Policy = "owner"
	// PolicyRoundRobin ignores locality and spreads requests evenly.
	PolicyRoundRobin Policy = "rr"
)

// Workloads a Server can run.
const (
	// WorkloadInference answers each request with the model's predicted
	// class for the seed node (sample, gather, forward).
	WorkloadInference = "inference"
	// WorkloadRetrieval answers each request with the seed node's top-K
	// nearest neighbors in embedding space, through an ann.Index
	// (NewRetrieval). Requests report recall@K against the exact oracle.
	WorkloadRetrieval = "retrieval"
)

// Options configures a serving run. Zero values take defaults via
// Normalize.
type Options struct {
	// Rate is the mean Poisson arrival rate in requests per virtual
	// second (default 2000).
	Rate float64
	// Requests is the open-loop request count (default 2000).
	Requests int
	// MaxBatch caps how many requests one batch coalesces (default 16;
	// 1 disables batching — every request runs alone).
	MaxBatch int
	// MaxDelay is the longest a queued request waits for companions
	// before its batch launches anyway, in virtual seconds (default 1ms).
	MaxDelay float64
	// SLO is the latency target reported against, in virtual seconds
	// (default 20ms).
	SLO float64
	// Deadline drops requests whose batch has not launched within this
	// many virtual seconds of arrival (0 = no timeouts).
	Deadline float64
	// QueueCap bounds each replica's waiting queue; arrivals beyond it
	// are shed (default 8*MaxBatch).
	QueueCap int
	// CacheRows, when positive, fronts each replica's feature gathers
	// with a degree-ordered hot-node cache of that many rows.
	CacheRows int
	// Fanouts are the per-layer sampling fanouts (default 10,10).
	Fanouts []int
	// Skew, when > 1, draws seed nodes from a Zipf distribution over the
	// degree ranking (rank 0 = highest degree), modelling the popularity
	// skew of real traffic; 0 draws them uniformly.
	Skew float64
	// Policy is the routing policy (default PolicyCacheAware).
	Policy Policy
	// Seed fixes the arrival process and seed-node draw.
	Seed int64
	// PagedFeatures serves node features from the paged feature store
	// (internal/featstore) instead of a resident wholemem slab — the
	// serving-side counterpart of train.Options.PagedFeatures.
	PagedFeatures bool
	// FeatEncoding is the page codec ("raw", "f16", "q8"; default raw).
	FeatEncoding string
	// FeatPageRows is the paged store's rows-per-page (0 = 256).
	FeatPageRows int
	// FeatCacheMB is each GPU's BlockCache budget in MiB (0 = 256).
	FeatCacheMB int
	// CachePolicy selects the BlockCache policy ("lru" or "admit").
	CachePolicy string
	// Workload selects what a request asks for: WorkloadInference
	// (default) or WorkloadRetrieval. New always serves inference;
	// retrieval deployments come from NewRetrieval.
	Workload string
	// TopK is the neighbor count of a retrieval request (default 10).
	TopK int
	// EfSearch is the HNSW beam width retrieval batches search with
	// (0 = the index's Options.EfSearch default).
	EfSearch int
}

// Normalize fills defaults.
func (o Options) Normalize() Options {
	if o.Rate == 0 {
		o.Rate = 2000
	}
	if o.Requests == 0 {
		o.Requests = 2000
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 1e-3
	}
	if o.SLO == 0 {
		o.SLO = 20e-3
	}
	if o.QueueCap == 0 {
		o.QueueCap = 8 * o.MaxBatch
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{10, 10}
	}
	if o.Policy == "" {
		o.Policy = PolicyCacheAware
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workload == "" {
		o.Workload = WorkloadInference
	}
	if o.TopK == 0 {
		o.TopK = 10
	}
	return o
}

// Validate rejects unusable option combinations.
func (o Options) Validate() error {
	switch {
	case o.Rate <= 0:
		return fmt.Errorf("serve: Rate must be positive, got %g", o.Rate)
	case o.Requests <= 0:
		return fmt.Errorf("serve: Requests must be positive, got %d", o.Requests)
	case o.MaxBatch < 1:
		return fmt.Errorf("serve: MaxBatch must be >= 1, got %d", o.MaxBatch)
	case o.MaxDelay < 0:
		return fmt.Errorf("serve: MaxDelay must be >= 0, got %g", o.MaxDelay)
	case o.Deadline < 0:
		return fmt.Errorf("serve: Deadline must be >= 0, got %g", o.Deadline)
	case o.QueueCap < 1:
		return fmt.Errorf("serve: QueueCap must be >= 1, got %d", o.QueueCap)
	case o.Skew != 0 && o.Skew <= 1:
		return fmt.Errorf("serve: Skew must be > 1 (or 0 for uniform), got %g", o.Skew)
	}
	switch o.Policy {
	case PolicyCacheAware, PolicyOwner, PolicyRoundRobin:
	default:
		return fmt.Errorf("serve: unknown routing policy %q", o.Policy)
	}
	switch o.Workload {
	case WorkloadInference, WorkloadRetrieval:
	default:
		return fmt.Errorf("serve: unknown workload %q", o.Workload)
	}
	if o.TopK < 1 {
		return fmt.Errorf("serve: TopK must be >= 1, got %d", o.TopK)
	}
	if o.EfSearch < 0 {
		return fmt.Errorf("serve: EfSearch must be >= 0, got %d", o.EfSearch)
	}
	return nil
}

// Server serves node-inference requests from the replicas of one store.
// Each replica is one GPU of the store's node: it runs its own model copy,
// loader and (optionally) hot-node feature cache, and gathers input
// features from every rank's shard through peer access.
type Server struct {
	Opts  Options
	Store *core.Store
	Model gnn.LayerwiseModel

	replicas []*replica
	// byDegree maps a popularity rank (0 = hottest) to a node ID; built
	// when Opts.Skew draws seed nodes by popularity or the cache-aware
	// router needs hotness. rankOf is its lazily-built inverse.
	byDegree []int64
	rankOf   map[int64]int64
	rr       int // round-robin cursor shared by the routing policies

	// Retrieval-workload state (nil for inference): the ANN index the
	// replicas search, and the exact top-K oracle precomputed before the
	// parallel serving region so replicas can fill per-request recall
	// from a read-only map.
	index  *ann.Index
	oracle map[int64][]ann.Result
}

// New builds a serving deployment: the dataset is partitioned over the
// GPUs of machine node `node` (one serving replica per GPU), and the given
// trained model is replicated onto each. Construction charges the store
// setup and cache fill; callers measuring steady-state serving should
// m.Reset() afterwards, as the benchmarks do.
func New(m *sim.Machine, node int, ds *dataset.Dataset, model gnn.LayerwiseModel, opts Options) (*Server, error) {
	opts = opts.Normalize()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Workload == WorkloadRetrieval {
		return nil, fmt.Errorf("serve: retrieval deployments are built with NewRetrieval over an ann.Index")
	}
	var store *core.Store
	var err error
	if opts.PagedFeatures {
		enc, encErr := featstore.ParseEncoding(opts.FeatEncoding)
		if encErr != nil {
			return nil, encErr
		}
		policy, polErr := blockcache.ParsePolicy(opts.CachePolicy)
		if polErr != nil {
			return nil, polErr
		}
		store, err = core.NewStorePaged(m, node, ds, featstore.Options{
			Encoding:   enc,
			PageRows:   opts.FeatPageRows,
			CacheBytes: int64(opts.FeatCacheMB) << 20,
			Policy:     policy,
		})
	} else {
		store, err = core.NewStore(m, node, ds)
	}
	if err != nil {
		return nil, err
	}
	if store.PG.Features() == nil {
		return nil, fmt.Errorf("serve: store has no node features")
	}
	cfg := model.Config()
	if cfg.InDim != store.PG.Dim {
		return nil, fmt.Errorf("serve: model input dim %d != feature dim %d", cfg.InDim, store.PG.Dim)
	}
	if cfg.Classes != ds.Spec.NumClasses {
		return nil, fmt.Errorf("serve: model classes %d != dataset classes %d", cfg.Classes, ds.Spec.NumClasses)
	}
	if len(opts.Fanouts) != cfg.Layers {
		return nil, fmt.Errorf("serve: %d fanouts for a %d-layer model", len(opts.Fanouts), cfg.Layers)
	}
	s := &Server{Opts: opts, Store: store, Model: model}
	devs := store.Comm.Devs
	for r, dev := range devs {
		rep := &replica{id: r, dev: dev, srv: s}
		if r == 0 {
			rep.model = model
		} else {
			mr, ok := gnn.New(model.Name(), cfg).(gnn.LayerwiseModel)
			if !ok {
				return nil, fmt.Errorf("serve: %s replica does not implement LayerwiseModel", model.Name())
			}
			rep.model = mr
		}
		rep.loader = core.NewLoader(store, dev, opts.Fanouts, opts.Seed+int64(r))
		if opts.CacheRows > 0 {
			fc, err := cache.NewDegreeCache(store.PG, dev, opts.CacheRows)
			if err != nil {
				return nil, fmt.Errorf("serve: building replica %d cache: %w", r, err)
			}
			rep.cache = fc
			rep.loader.WithCache(fc)
		}
		rep.tape = autograd.NewTapeArena(tensor.NewArena())
		s.replicas = append(s.replicas, rep)
	}
	if opts.Skew > 1 || (opts.Policy == PolicyCacheAware && opts.CacheRows > 0) {
		s.byDegree = degreeRanking(store)
	}
	return s, nil
}

// Replicas returns the number of serving replicas (GPUs of the node).
func (s *Server) Replicas() int { return len(s.replicas) }

// FeatStoreStats snapshots the paged feature store's BlockCache counters;
// the zero Stats when Options.PagedFeatures is off or the deployment has
// no store (retrieval).
func (s *Server) FeatStoreStats() featstore.Stats {
	if s.Store == nil {
		return featstore.Stats{}
	}
	if fs := s.Store.FeatStore(); fs != nil {
		return fs.Stats()
	}
	return featstore.Stats{}
}

// Caches returns the per-replica feature caches (nil entries when
// Options.CacheRows is 0).
func (s *Server) Caches() []*cache.FeatureCache {
	out := make([]*cache.FeatureCache, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.cache
	}
	return out
}

// Run generates the request stream, routes it, serves it, and returns the
// aggregated result. Model weights are synchronized to replica 0's model
// at the start, like infer.Engine.Run. Each call continues the machine's
// virtual clocks from wherever they are; benchmarks Reset between runs.
func (s *Server) Run() (*Result, error) {
	if s.Model != nil {
		for _, rep := range s.replicas[1:] {
			rep.model.Params().CopyFrom(s.Model.Params())
		}
	}
	trace := s.generate()
	if s.index != nil {
		s.buildOracle(trace)
	}
	perReplica := s.route(trace)

	sim.RunParallel(len(s.replicas), func(r int) {
		s.replicas[r].serve(perReplica[r])
	})

	res := s.aggregate(trace)
	return res, nil
}

// numNodes returns the request-node domain: graph nodes for inference,
// indexed embedding rows for retrieval.
func (s *Server) numNodes() int64 {
	if s.index != nil {
		return int64(s.index.N())
	}
	return s.Store.PG.N
}

// generate draws the open-loop arrival process: exponential inter-arrival
// gaps at Opts.Rate, seed nodes uniform or Zipf-skewed by popularity.
// Inference popularity follows the degree ranking (hot = high degree);
// retrieval has no degree notion, so popularity rank is the node ID
// itself (low IDs hottest) — a fixed, documented skew shape.
func (s *Server) generate() []*Request {
	o := s.Opts
	rng := rand.New(rand.NewSource(o.Seed*7919 + 13))
	var zipf *rand.Zipf
	if o.Skew > 1 {
		zipf = rand.NewZipf(rng, o.Skew, 1, uint64(s.numNodes()-1))
	}
	reqs := make([]*Request, o.Requests)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() / o.Rate
		var node int64
		switch {
		case zipf != nil && s.index != nil:
			// Popularity rank scattered over the table by a fixed odd
			// multiplier: the index shards rows contiguously, so rank==ID
			// would pile every hot query onto replica 0's shard. Hot
			// embeddings hash across shards the way hot training nodes do.
			node = int64((zipf.Uint64() * 2654435761) % uint64(s.numNodes()))
		case zipf != nil:
			node = s.byDegree[int64(zipf.Uint64())]
		default:
			node = rng.Int63n(s.numNodes())
		}
		reqs[i] = &Request{ID: i, Node: node, Arrival: t}
	}
	return reqs
}

// route assigns every request a replica under the configured policy and
// returns the per-replica streams (still in arrival order).
func (s *Server) route(reqs []*Request) [][]*Request {
	out := make([][]*Request, len(s.replicas))
	for _, q := range reqs {
		q.Replica = s.routeOne(q)
		out[q.Replica] = append(out[q.Replica], q)
	}
	return out
}

// routeOne picks the replica for one request. Static by design: routing
// must not depend on queue state, so the replica streams are fixed before
// serving starts and the replicas can run concurrently.
func (s *Server) routeOne(q *Request) int {
	n := len(s.replicas)
	var owner int
	if s.index != nil {
		owner = s.index.RankOfRow(q.Node)
	} else {
		owner = s.Store.PG.Owner[q.Node].Rank()
	}
	switch s.Opts.Policy {
	case PolicyRoundRobin:
		r := s.rr % n
		s.rr++
		return r
	case PolicyOwner:
		return owner
	default: // PolicyCacheAware
		// A row within the cache capacity of the degree ranking is local
		// on its owner and cached everywhere else, so any replica serves
		// it from local memory — spread those round-robin. Cold rows go
		// to their owner, whose shard holds them. Retrieval replicas have
		// no hot-row cache, so the policy degrades to owner routing
		// (the query row gather is then always local).
		if s.index == nil && s.Opts.CacheRows > 0 && s.degreeRank(q.Node) < int64(s.Opts.CacheRows) {
			r := s.rr % n
			s.rr++
			return r
		}
		return owner
	}
}

// degreeRank returns the node's position in the degree ranking (0 =
// highest degree), matching cache.NewDegreeCache's fill order.
func (s *Server) degreeRank(node int64) int64 {
	if s.rankOf == nil {
		s.rankOf = make(map[int64]int64, len(s.byDegree))
		for i, v := range s.byDegree {
			s.rankOf[v] = int64(i)
		}
	}
	return s.rankOf[node]
}

// degreeRanking orders all node IDs by degree descending, ties by ID —
// the exact order cache.NewDegreeCache fills in.
func degreeRanking(store *core.Store) []int64 {
	pg := store.PG
	nodes := make([]int64, pg.N)
	for v := range nodes {
		nodes[v] = int64(v)
	}
	sort.Slice(nodes, func(i, j int) bool {
		di, dj := pg.Degree(pg.Owner[nodes[i]]), pg.Degree(pg.Owner[nodes[j]])
		if di != dj {
			return di > dj
		}
		return nodes[i] < nodes[j]
	})
	return nodes
}
