package featstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"wholegraph/internal/dataset"
)

// Page spill: the store's encoded pages written once to disk, so a
// generation-backed store (whose RowSource recomputes rows) or a lossy
// store can be reloaded without re-encoding. The format reuses the dataset
// package's binary-io primitives: magic, version, JSON header, a page
// index of (offset, rows, min, max), the page payloads, and a CRC-32C
// trailer over everything after the version word.

const (
	spillMagic   = "WGFS"
	spillVersion = uint32(1)
)

// spillHeader is the JSON file header.
type spillHeader struct {
	Encoding string `json:"encoding"`
	PageRows int    `json:"page_rows"`
	Rows     int64  `json:"rows"`
	Dim      int    `json:"dim"`
}

// spillPageMeta is one page-index entry: where the page's payload starts
// (relative to the payload section) and the codec parameters needed to
// decode it.
type spillPageMeta struct {
	Off  int64
	Rows int32
	Min  float32
	Max  float32
}

// Spill encodes every page of the store (from its row source; no device
// is charged — this is offline preparation, like wggen) and writes them
// with the page index. The bytes are deterministic in (source, options).
func (s *Store) Spill(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(spillMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, spillVersion); err != nil {
		return err
	}
	cw := dataset.NewCRC32Writer(bw)
	hdr, err := json.Marshal(spillHeader{
		Encoding: s.opts.Encoding.String(), PageRows: s.opts.PageRows,
		Rows: s.nRows, Dim: s.dim,
	})
	if err != nil {
		return fmt.Errorf("featstore: encoding spill header: %w", err)
	}
	if err := dataset.WriteBytes(cw, hdr); err != nil {
		return err
	}
	// Index first (fixed-size records), then payloads in page order. Two
	// encode passes — one to size the index, one to stream payloads —
	// keep resident memory at one page regardless of store size.
	nPages := int32(s.NumPages())
	var buf []float32
	encode := func(id int32) *page {
		lo := int64(id) * int64(s.opts.PageRows)
		var pg *page
		pg, buf = s.encodeRows(lo, min(lo+int64(s.opts.PageRows), s.nRows), buf)
		return pg
	}
	if err := binary.Write(cw, binary.LittleEndian, int64(nPages)); err != nil {
		return err
	}
	var off int64
	for id := int32(0); id < nPages; id++ {
		pg := encode(id)
		m := spillPageMeta{Off: off, Rows: int32(pg.rows), Min: pg.minV, Max: pg.maxV}
		if err := binary.Write(cw, binary.LittleEndian, m); err != nil {
			return err
		}
		off += int64(len(pg.data))
	}
	for id := int32(0); id < nPages; id++ {
		if err := dataset.WriteBytes(cw, encode(id).data); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// SpillFile writes the spill to path.
func (s *Store) SpillFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Spill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Spilled is a loaded page spill. It implements RowSource by decoding rows
// from its resident encoded pages, so a Store can be rebuilt directly over
// it: featstore.New(spilled, opts). Decoding a Raw spill reproduces the
// original bits; re-encoding a lossy spill at the same encoding is
// idempotent (decode∘encode is a projection), so a Store over a Spilled
// source gathers exactly the spilled values.
type Spilled struct {
	Enc      Encoding
	PageRows int
	Rows     int64
	D        int
	pages    []*page
}

// NumRows implements RowSource.
func (sp *Spilled) NumRows() int64 { return sp.Rows }

// Dim implements RowSource.
func (sp *Spilled) Dim() int { return sp.D }

// FillRow implements RowSource by decoding from the spilled page.
func (sp *Spilled) FillRow(row int64, dst []float32) {
	id := row / int64(sp.PageRows)
	sp.pages[id].decodeRow(sp.Enc, int(row-id*int64(sp.PageRows)), sp.D, dst)
}

// LoadSpill reads a spill written by Spill, verifying the checksum.
func LoadSpill(r io.Reader) (*Spilled, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(spillMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("featstore: reading spill magic: %w", err)
	}
	if string(magic) != spillMagic {
		return nil, fmt.Errorf("featstore: bad spill magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != spillVersion {
		return nil, fmt.Errorf("featstore: unsupported spill version %d", version)
	}
	cr := dataset.NewCRC32Reader(br)
	hdrBytes, err := dataset.ReadBytes(cr)
	if err != nil {
		return nil, err
	}
	var hdr spillHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("featstore: decoding spill header: %w", err)
	}
	enc, err := ParseEncoding(hdr.Encoding)
	if err != nil {
		return nil, err
	}
	if hdr.PageRows <= 0 || hdr.Dim <= 0 || hdr.Dim > math.MaxInt32/4 || hdr.Rows < 0 {
		return nil, fmt.Errorf("featstore: corrupt spill header %+v", hdr)
	}
	var nPages int64
	if err := binary.Read(cr, binary.LittleEndian, &nPages); err != nil {
		return nil, err
	}
	pageRows := int64(hdr.PageRows)
	wantPages := (hdr.Rows + pageRows - 1) / pageRows
	if nPages != wantPages || nPages < 0 || nPages > math.MaxInt32 {
		return nil, fmt.Errorf("featstore: spill has %d pages, header implies %d", nPages, wantPages)
	}
	rowBytes := int64(hdr.Dim) * int64(enc.BytesPerElem())
	if pageRows > math.MaxInt32/rowBytes {
		return nil, fmt.Errorf("featstore: corrupt spill header %+v", hdr)
	}
	// The index is read entry by entry, so storage grows with the bytes
	// actually present rather than with the header's page count. Every
	// entry must describe exactly the page the header implies: PageRows
	// rows (fewer only for the last page) at the running payload offset.
	var metas []spillPageMeta
	var wantOff int64
	for i := int64(0); i < nPages; i++ {
		var m spillPageMeta
		if err := binary.Read(cr, binary.LittleEndian, &m); err != nil {
			return nil, fmt.Errorf("featstore: reading page index entry %d: %w", i, err)
		}
		rows := min(pageRows, hdr.Rows-i*pageRows)
		if int64(m.Rows) != rows || m.Off != wantOff {
			return nil, fmt.Errorf("featstore: page %d index entry (%d rows at offset %d) does not match the header (%d rows at %d)", i, m.Rows, m.Off, rows, wantOff)
		}
		wantOff += rows * rowBytes
		metas = append(metas, m)
	}
	sp := &Spilled{Enc: enc, PageRows: hdr.PageRows, Rows: hdr.Rows, D: hdr.Dim}
	for i, m := range metas {
		var n uint64
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("featstore: reading page %d: %w", i, err)
		}
		if want := int64(m.Rows) * rowBytes; n != uint64(want) {
			return nil, fmt.Errorf("featstore: page %d payload is %d bytes, index implies %d", i, n, want)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(cr, data); err != nil {
			return nil, fmt.Errorf("featstore: reading page %d: %w", i, err)
		}
		sp.pages = append(sp.pages, &page{data: data, minV: m.Min, maxV: m.Max, rows: int(m.Rows)})
	}
	sum := cr.Sum32()
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("featstore: reading spill checksum: %w", err)
	}
	if sum != want {
		return nil, fmt.Errorf("featstore: spill checksum mismatch (file %08x, computed %08x): corrupt or truncated file", want, sum)
	}
	return sp, nil
}

// LoadSpillFile reads a spill from path.
func LoadSpillFile(path string) (*Spilled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSpill(f)
}
