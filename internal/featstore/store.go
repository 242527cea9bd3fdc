package featstore

import (
	"fmt"
	"sync"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
)

// RowSource produces feature rows on demand; the store never materializes
// the full float32 table. Implementations: the dataset's rows in partition
// order (core's adapter over a materialized slab or the hash-seeded
// dataset.FeatureGen stream), or a spilled page file (Spilled).
type RowSource interface {
	NumRows() int64
	Dim() int
	// FillRow writes row's dim float32 values into dst[:Dim()].
	// Implementations must be deterministic and safe for concurrent calls
	// with distinct dst buffers.
	FillRow(row int64, dst []float32)
}

// Options configures a Store.
type Options struct {
	// Encoding is the page codec (default Raw: bit-exact).
	Encoding Encoding
	// PageRows is the number of rows per page (default 256). The last page
	// may be partial.
	PageRows int
	// CacheBytes is each attached device's BlockCache budget in bytes of
	// encoded page payload (default 256 MiB).
	CacheBytes int64
	// Policy selects the BlockCache replacement/admission policy
	// (default blockcache.PolicyLRU). PolicyAdmit changes only which pages
	// stay resident — decoded values are identical under either policy.
	Policy blockcache.Policy
}

// Store is the paged feature table, a codec over the blockcache.PageStore
// core (which supplies Attach, NumPages, PageOf, PrefetchPages and the
// per-device caches). It implements graph.FeatureSource: GatherRows
// decodes the requested rows out of each device's cached encoded pages.
type Store struct {
	*blockcache.PageStore[*page]
	src   RowSource
	opts  Options
	nRows int64
	dim   int
}

// New builds a store over src. Attach devices before gathering.
func New(src RowSource, opts Options) (*Store, error) {
	if opts.PageRows <= 0 {
		opts.PageRows = 256
	}
	n, dim := src.NumRows(), src.Dim()
	if n < 0 || dim <= 0 {
		return nil, fmt.Errorf("featstore: bad source shape %d x %d", n, dim)
	}
	s := &Store{src: src, opts: opts, nRows: n, dim: dim}
	s.PageStore = blockcache.NewPageStore(blockcache.Config[*page]{
		Name: "featstore", Unit: "row", Units: n, PageUnits: opts.PageRows,
		CacheBytes: opts.CacheBytes, Policy: opts.Policy,
		WorkingSetBytes: s.EncodedBytes(), Fill: s.fillPage,
	})
	return s, nil
}

// NumRows implements graph.FeatureSource.
func (s *Store) NumRows() int64 { return s.nRows }

// Dim implements graph.FeatureSource.
func (s *Store) Dim() int { return s.dim }

// EncodedBytes returns the store's total encoded payload size — the
// virtual footprint a flat encoded table would occupy, and the UM working
// set the fault-latency model sees.
func (s *Store) EncodedBytes() int64 {
	return s.nRows * int64(s.dim) * int64(s.opts.Encoding.BytesPerElem())
}

// staging recycles the float32 buffers pages are encoded from.
var staging = sync.Pool{New: func() any { return new([]float32) }}

// fillPage encodes rows [lo, hi) from the row source — the core's Fill.
func (s *Store) fillPage(lo, hi int64) *page {
	buf := staging.Get().(*[]float32)
	var pg *page
	pg, *buf = s.encodeRows(lo, hi, *buf)
	staging.Put(buf)
	return pg
}

// encodeRows encodes rows [lo, hi) from the row source, using buf (grown
// as needed) as the float32 staging area. Deterministic in (src, lo, hi).
func (s *Store) encodeRows(lo, hi int64, buf []float32) (*page, []float32) {
	rows := int(hi - lo)
	need := rows * s.dim
	if cap(buf) < need {
		buf = make([]float32, need)
	}
	buf = buf[:need]
	for r := 0; r < rows; r++ {
		s.src.FillRow(lo+int64(r), buf[r*s.dim:(r+1)*s.dim])
	}
	return encodePage(s.opts.Encoding, buf, rows, s.dim), buf
}

// GatherRows implements graph.FeatureSource. It resolves each requested
// row's page in one demand batch against dev's BlockCache — distinct
// missing pages are faulted in on the copy stream, and the current stream
// waits on the transfer — then one decode kernel reads the (now resident,
// still encoded) rows at HBM random-access cost and widens them to
// float32 in dst. Returns the virtual seconds the current stream advanced.
func (s *Store) GatherRows(dev *sim.Device, rows []int64, dim int, dst []float32, tag string) float64 {
	if dim != s.dim {
		panic(fmt.Sprintf("featstore: dim %d != store dim %d", dim, s.dim))
	}
	if len(dst) < len(rows)*dim {
		panic("featstore: dst too small")
	}
	t0 := dev.Now()
	b := s.Begin(dev)
	for i, row := range rows {
		pg, r := b.At(row)
		pg.decodeRow(s.opts.Encoding, r, dim, dst[i*dim:(i+1)*dim])
	}
	b.Flush()
	elems := len(rows) * dim
	dev.Kernel(sim.KernelCost{
		RandBytes:   float64(elems * s.opts.Encoding.BytesPerElem()),
		FLOPs:       float64(elems) * s.opts.Encoding.decodeFLOPsPerElem(),
		StreamBytes: float64(4 * elems),
		Tag:         tag,
	})
	return dev.Now() - t0
}

// ReadRow implements graph.FeatureSource: an uncharged host-side read that
// returns exactly what GatherRows would decode for the row (for Raw, the
// source bits verbatim; for lossy encodings, the codec's reconstruction).
func (s *Store) ReadRow(row int64, dst []float32) {
	pg, r := s.Read(row)
	pg.decodeRow(s.opts.Encoding, r, s.dim, dst)
}

// Stats is the store's codec configuration plus the core's stats.
type Stats struct {
	Encoding     string `json:"encoding"`
	PageRows     int    `json:"page_rows"`
	EncodedBytes int64  `json:"encoded_bytes"`
	blockcache.Stats
}

// Add accumulates o into st (the aggregate over one trainer's stores):
// the first store's codec settings, summed sizes and counters.
func (st *Stats) Add(o Stats) {
	if st.Encoding == "" {
		st.Encoding, st.PageRows = o.Encoding, o.PageRows
	}
	st.EncodedBytes += o.EncodedBytes
	st.Stats.Add(o.Stats)
}

// Stats snapshots the aggregate counters.
func (s *Store) Stats() Stats {
	return Stats{
		Encoding: s.opts.Encoding.String(), PageRows: s.opts.PageRows,
		EncodedBytes: s.EncodedBytes(), Stats: s.PageStore.Stats(),
	}
}
