package featstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
)

// SliceSource adapts a row-major materialized slab to RowSource.
type SliceSource struct {
	Data []float32
	D    int
}

func (s *SliceSource) NumRows() int64 { return int64(len(s.Data) / s.D) }
func (s *SliceSource) Dim() int       { return s.D }
func (s *SliceSource) FillRow(row int64, dst []float32) {
	copy(dst, s.Data[row*int64(s.D):(row+1)*int64(s.D)])
}

func testSource(rng *rand.Rand, rows, dim int) *SliceSource {
	return &SliceSource{Data: randMatrix(rng, rows, dim), D: dim}
}

func newTestStore(t *testing.T, src RowSource, opts Options) (*Store, *sim.Device) {
	t.Helper()
	s, err := New(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...)
	return s, m.Devs[0]
}

// TestGatherRawBitExact: gathering through the paged store with the raw
// encoding returns the source rows bit-identically, in any order, across
// page boundaries and the partial last page.
func TestGatherRawBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, dim = 1000, 7
	src := testSource(rng, rows, dim)
	s, dev := newTestStore(t, src, Options{PageRows: 64}) // 1000/64: partial last page
	if s.NumPages() != 16 {
		t.Fatalf("pages = %d, want 16", s.NumPages())
	}
	idx := make([]int64, 300)
	for i := range idx {
		idx[i] = rng.Int63n(rows)
	}
	idx[0], idx[1] = rows-1, 0 // cover both extremes incl. partial page
	dst := make([]float32, len(idx)*dim)
	s.GatherRows(dev, idx, dim, dst, "test")
	for i, row := range idx {
		for j := 0; j < dim; j++ {
			want := src.Data[row*int64(dim)+int64(j)]
			got := dst[i*dim+j]
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("row %d col %d: %g != %g", row, j, got, want)
			}
		}
	}
}

// TestGatherChargesMissesThenHits: the first gather faults pages in (copy
// stream, UM cost) and a repeat of the same rows is served from the
// BlockCache — strictly cheaper, with the hit/miss counters moving.
func TestGatherChargesMissesThenHits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rows, dim = 512, 16
	src := testSource(rng, rows, dim)
	s, dev := newTestStore(t, src, Options{PageRows: 32})
	idx := []int64{0, 33, 65, 100, 200, 500}
	dst := make([]float32, len(idx)*dim)

	t0 := dev.Now()
	s.GatherRows(dev, idx, dim, dst, "test")
	missTime := dev.Now() - t0
	st := s.Stats()
	if st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("first gather: %+v", st)
	}
	firstMisses := st.Misses

	t1 := dev.Now()
	s.GatherRows(dev, idx, dim, dst, "test")
	hitTime := dev.Now() - t1
	st = s.Stats()
	if st.Misses != firstMisses {
		t.Errorf("repeat gather faulted pages: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("repeat gather recorded no hits: %+v", st)
	}
	if hitTime >= missTime {
		t.Errorf("hit gather (%.3g s) not cheaper than miss gather (%.3g s)", hitTime, missTime)
	}
	if st.ResidentBytes > st.CacheBytes {
		t.Errorf("resident %d over budget %d", st.ResidentBytes, st.CacheBytes)
	}
}

// TestGatherEvictsUnderPressure: a budget far below the touched working
// set forces evictions while every gather still decodes correct values.
func TestGatherEvictsUnderPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows, dim = 2048, 8
	src := testSource(rng, rows, dim)
	pageBytes := int64(64*dim*4) + 8
	s, err := New(src, Options{PageRows: 64, CacheBytes: 3 * pageBytes})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...)
	dev := m.Devs[0]
	dst := make([]float32, dim)
	for i := 0; i < 400; i++ {
		row := rng.Int63n(rows)
		s.GatherRows(dev, []int64{row}, dim, dst, "test")
		for j := 0; j < dim; j++ {
			if dst[j] != src.Data[row*int64(dim)+int64(j)] {
				t.Fatalf("iter %d row %d: wrong value after eviction churn", i, row)
			}
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions under a 3-page budget")
	}
	if st.ResidentBytes > 3*pageBytes {
		t.Errorf("resident %d over 3-page budget %d", st.ResidentBytes, 3*pageBytes)
	}
}

// TestReadRowMatchesGather: the uncharged host read decodes exactly what a
// device gather returns, for every encoding (lossy ones included).
func TestReadRowMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows, dim = 300, 5
	for _, enc := range []Encoding{Raw, Float16, Quant8} {
		src := testSource(rng, rows, dim)
		s, dev := newTestStore(t, src, Options{Encoding: enc, PageRows: 37})
		got := make([]float32, dim)
		want := make([]float32, dim)
		for i := 0; i < 50; i++ {
			row := rng.Int63n(rows)
			s.ReadRow(row, got)
			s.GatherRows(dev, []int64{row}, dim, want, "test")
			for j := 0; j < dim; j++ {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%v row %d col %d: ReadRow %g != Gather %g", enc, row, j, got[j], want[j])
				}
			}
		}
	}
}

// TestPerDeviceCaches: each attached device faults its own pages; one
// device's misses do not warm another's cache.
func TestPerDeviceCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := testSource(rng, 256, 4)
	s, _ := newTestStore(t, src, Options{PageRows: 32})
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...) // fresh devices; first Attach in helper used another machine
	d0, d1 := m.Devs[0], m.Devs[1]
	dst := make([]float32, 4)
	s.GatherRows(d0, []int64{0}, 4, dst, "t")
	s.GatherRows(d0, []int64{1}, 4, dst, "t") // same page: hit
	s.GatherRows(d1, []int64{2}, 4, dst, "t") // same page, other device: miss
	st := s.Stats()
	if st.Misses != 2 || st.Hits != 1 {
		t.Errorf("cross-device stats: %+v", st)
	}
}

// TestSpillRoundtrip: spill -> load -> rebuild store serves identical
// values, and a corrupted spill file is rejected by the checksum.
func TestSpillRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const rows, dim = 500, 6
	for _, enc := range []Encoding{Raw, Float16, Quant8} {
		src := testSource(rng, rows, dim)
		s, dev := newTestStore(t, src, Options{Encoding: enc, PageRows: 64})
		path := filepath.Join(t.TempDir(), "feat.spill")
		if err := s.SpillFile(path); err != nil {
			t.Fatalf("%v: spill: %v", enc, err)
		}
		sp, err := LoadSpillFile(path)
		if err != nil {
			t.Fatalf("%v: load: %v", enc, err)
		}
		if sp.NumRows() != rows || sp.Dim() != dim {
			t.Fatalf("%v: spill shape %dx%d", enc, sp.NumRows(), sp.Dim())
		}
		// A store over the spill decodes the same values as the original.
		s2, err := New(sp, Options{Encoding: enc, PageRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		m := sim.NewMachine(sim.DGXA100(1))
		s2.Attach(m.Devs...)
		want := make([]float32, dim)
		got := make([]float32, dim)
		for i := 0; i < 40; i++ {
			row := rng.Int63n(rows)
			s.GatherRows(dev, []int64{row}, dim, want, "t")
			s2.GatherRows(m.Devs[0], []int64{row}, dim, got, "t")
			for j := 0; j < dim; j++ {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%v row %d col %d: spill %g != store %g", enc, row, j, got[j], want[j])
				}
			}
		}
	}
}

func TestSpillCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := testSource(rng, 200, 4)
	s, _ := newTestStore(t, src, Options{PageRows: 32})
	path := filepath.Join(t.TempDir(), "feat.spill")
	if err := s.SpillFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte well past the header.
	bad := bytes.Clone(raw)
	bad[len(bad)/2] ^= 0x40
	if _, err := LoadSpill(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted spill accepted")
	} else if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "mismatch") {
		t.Logf("corruption surfaced as: %v", err) // structural errors also acceptable
	}
	// Truncation is detected too.
	if _, err := LoadSpill(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Error("truncated spill accepted")
	}
}

// craftSpill writes a spill by hand — header, page count, index entries
// and payloads exactly as given — with a valid checksum, so LoadSpill's
// structural validation is all that stands between it and a decode.
func craftSpill(t *testing.T, hdr spillHeader, nPages int64, metas []spillPageMeta, payloads [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(spillMagic)
	le := binary.LittleEndian
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(binary.Write(&buf, le, spillVersion))
	cw := dataset.NewCRC32Writer(&buf)
	h, err := json.Marshal(hdr)
	must(err)
	must(dataset.WriteBytes(cw, h))
	must(binary.Write(cw, le, nPages))
	for _, m := range metas {
		must(binary.Write(cw, le, m))
	}
	for _, p := range payloads {
		must(dataset.WriteBytes(cw, p))
	}
	must(binary.Write(&buf, le, cw.Sum32()))
	return buf.Bytes()
}

// TestLoadSpillRejectsCraftedIndex: spills whose page index disagrees with
// the header are rejected with an error — never a panic on a later
// FillRow, never an allocation sized by the header alone.
func TestLoadSpillRejectsCraftedIndex(t *testing.T) {
	hdr := spillHeader{Encoding: "raw", PageRows: 4, Rows: 4, Dim: 1}
	// The well-formed twin loads, so the rejections below are the index's.
	good := craftSpill(t, hdr, 1, []spillPageMeta{{Rows: 4}}, [][]byte{make([]byte, 16)})
	sp, err := LoadSpill(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("well-formed spill rejected: %v", err)
	}
	sp.FillRow(3, make([]float32, 1))

	// A 4-row spill whose only page claims 1 row (payload sized to match).
	short := craftSpill(t, hdr, 1, []spillPageMeta{{Rows: 1}}, [][]byte{make([]byte, 4)})
	if _, err := LoadSpill(bytes.NewReader(short)); err == nil {
		t.Error("page claiming 1 of the header's 4 rows accepted")
	}

	// A tiny file claiming 2^31-1 one-row pages: an error after reading
	// what is there, without allocating for the claimed index.
	huge := spillHeader{Encoding: "raw", PageRows: 1, Rows: math.MaxInt32, Dim: 1}
	tiny := craftSpill(t, huge, math.MaxInt32, []spillPageMeta{{Rows: 1}, {Off: 4, Rows: 1}}, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = LoadSpill(bytes.NewReader(tiny))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("truncated index of 2^31-1 pages accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("LoadSpill allocated %d bytes for a %d-byte file", alloc, len(tiny))
	}
}

// TestStoreConcurrentGathers drives every device of one machine against
// the same store from real goroutines (the sim.RunParallel shape) — the
// -race regression test for the store's locking.
func TestStoreConcurrentGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, dim = 1024, 8
	src := testSource(rng, rows, dim)
	s, err := New(src, Options{PageRows: 32, CacheBytes: 8 * 1100})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...)
	sim.RunParallel(len(m.Devs), func(r int) {
		lr := rand.New(rand.NewSource(int64(r)))
		dst := make([]float32, 16*dim)
		idx := make([]int64, 16)
		for it := 0; it < 50; it++ {
			for i := range idx {
				idx[i] = lr.Int63n(rows)
			}
			s.GatherRows(m.Devs[r], idx, dim, dst, "t")
			for i, row := range idx {
				if dst[i*dim] != src.Data[row*int64(dim)] {
					t.Errorf("rank %d: wrong value for row %d", r, row)
					return
				}
			}
		}
	})
	st := s.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no lookups recorded")
	}
}
