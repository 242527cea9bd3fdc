// Package topostore is the out-of-core topology analogue of
// internal/featstore: the CSR column array (destination GlobalIDs,
// sharded by source rank and concatenated into one global edge index
// space) is served from fixed-edge-range pages produced on demand by a
// fill function, a codec over the same internal/blockcache page-store
// core. A page miss pays the Unified-Memory fault dance on the device's
// copy stream; a hit reads local HBM. Sampling reads neighbors through an
// Access, which batches one fault dance per sampling kernel and joins
// any in-flight prefetch transfers, so paged sampling is bit-identical
// to the in-memory CSR — only virtual time and hit rates change.
package topostore

import (
	"fmt"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
)

// Fill writes the column values (destination GlobalIDs as uint64) for
// global edge indices [e0, e1) into dst. Implementations must be
// deterministic and safe for concurrent calls with distinct dst buffers
// (graph.PartitionPaged provides one backed by a graph.TopoSource).
type Fill func(e0, e1 int64, dst []uint64)

// Options configures a Store.
type Options struct {
	// PageEdges is the number of column entries per page (default 4096,
	// 32 KiB of payload). The last page may be partial.
	PageEdges int
	// CacheBytes is each attached device's BlockCache budget in bytes of
	// decoded column payload (default 256 MiB).
	CacheBytes int64
	// Policy selects the BlockCache replacement/admission policy
	// (default blockcache.PolicyLRU). Residency-only: decoded neighbors
	// are identical under either policy.
	Policy blockcache.Policy
}

// colPage is one resident column range.
type colPage []uint64

// CacheBytes implements blockcache.Block.
func (p colPage) CacheBytes() int64 { return int64(len(p))*8 + 16 }

// Store is the paged column table, a codec over the blockcache.PageStore
// core (which supplies Attach, NumPages, PageOf, PrefetchPages and the
// per-device caches).
type Store struct {
	*blockcache.PageStore[colPage]
	opts     Options
	numEdges int64
}

// New builds a store over numEdges column entries served by fill.
func New(numEdges int64, fill Fill, opts Options) (*Store, error) {
	if opts.PageEdges <= 0 {
		opts.PageEdges = 4096
	}
	if numEdges < 0 {
		return nil, fmt.Errorf("topostore: negative edge count %d", numEdges)
	}
	if fill == nil {
		return nil, fmt.Errorf("topostore: nil fill function")
	}
	s := &Store{opts: opts, numEdges: numEdges}
	s.PageStore = blockcache.NewPageStore(blockcache.Config[colPage]{
		Name: "topostore", Unit: "edge", Units: numEdges, PageUnits: opts.PageEdges,
		CacheBytes: opts.CacheBytes, Policy: opts.Policy,
		WorkingSetBytes: s.TopoBytes(),
		Fill: func(lo, hi int64) colPage {
			pg := make(colPage, hi-lo)
			fill(lo, hi, pg)
			return pg
		},
	})
	return s, nil
}

// NumEdges returns the stored column entry count.
func (s *Store) NumEdges() int64 { return s.numEdges }

// TopoBytes returns the virtual column footprint — what a materialized
// wholemem Col array would occupy, and the UM working set the
// fault-latency model sees.
func (s *Store) TopoBytes() int64 { return s.numEdges * 8 }

// Begin starts a page-aware access batch on dev: At decodes single
// column entries, tracking which pages were touched and which missed;
// Flush charges one copy-stream fault dance for all misses, joins any
// in-flight prefetch transfers, resets the batch, and returns the number
// of pages faulted (see blockcache.Batch). One Access per device — Begin
// while a batch is open resets it.
func (s *Store) Begin(dev *sim.Device) *Access {
	return &Access{s.PageStore.Begin(dev)}
}

// Access is an open access batch; see Store.Begin.
type Access struct{ *blockcache.Batch[colPage] }

// At returns the column value at global edge index e, faulting the
// holding page host-side if missing (the virtual-time charge is deferred
// to Flush). The value is identical whether the page was resident,
// missing, or admission-rejected.
func (a *Access) At(e int64) uint64 {
	pg, i := a.Batch.At(e)
	return pg[i]
}

// ReadEdge is the uncharged host-side read: the column value at e,
// exactly what an Access would decode, without touching device caches.
func (s *Store) ReadEdge(e int64) uint64 {
	pg, i := s.Read(e)
	return pg[i]
}

// Stats is the store's page layout plus the core's stats.
type Stats struct {
	PageEdges int   `json:"page_edges"`
	TopoBytes int64 `json:"topo_bytes"`
	blockcache.Stats
}

// Add accumulates o into st (the aggregate over one trainer's stores,
// which all serve the same global column array): the first store's
// layout and footprint, summed counters.
func (st *Stats) Add(o Stats) {
	if st.PageEdges == 0 {
		st.PageEdges, st.TopoBytes = o.PageEdges, o.TopoBytes
	}
	st.Stats.Add(o.Stats)
}

// Stats snapshots the aggregate counters.
func (s *Store) Stats() Stats {
	return Stats{PageEdges: s.opts.PageEdges, TopoBytes: s.TopoBytes(), Stats: s.PageStore.Stats()}
}
