// Package featstore is a paged, compressed, columnar feature store: the
// out-of-core backing for node features too large for the flat in-memory
// slab (ogbn-papers100M at full scale is ~57 GB of float32). Rows live in
// fixed-size pages encoded with one of three codecs, served by the
// internal/blockcache page-store core: each GPU keeps a byte-budgeted
// cache of encoded pages in its HBM, decoded on read; a page miss pays
// the Unified-Memory page-fault cost on the device's copy stream, while
// a hit pays only local HBM. This package holds the codecs, the page
// spill, and the decode kernel.
//
// The raw encoding is bit-exact — training through the store produces
// losses bit-identical to the flat slab — while the float16 and 8-bit
// quantized encodings trade accuracy for a 2x/4x smaller page working set,
// opt-in and reported with accuracy deltas by the featstore ablation.
package featstore

import (
	"fmt"
	"math"
)

// Encoding selects the page codec.
type Encoding uint8

// The supported page encodings.
const (
	// Raw stores IEEE-754 float32 bits: 4 bytes/element, bit-exact.
	Raw Encoding = iota
	// Float16 truncates each float32 to its upper 16 bits (bfloat16-style:
	// sign, full 8-bit exponent, 7 mantissa bits): 2 bytes/element.
	Float16
	// Quant8 linearly quantizes each element to 8 bits against the page's
	// min/max range: 1 byte/element.
	Quant8
)

// String names the encoding as the CLI flags spell it.
func (e Encoding) String() string {
	switch e {
	case Raw:
		return "raw"
	case Float16:
		return "f16"
	case Quant8:
		return "q8"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// ParseEncoding resolves a CLI spelling of an encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "raw", "float32", "":
		return Raw, nil
	case "f16", "float16", "bf16":
		return Float16, nil
	case "q8", "quant8", "int8":
		return Quant8, nil
	}
	return Raw, fmt.Errorf("featstore: unknown encoding %q (want raw, f16 or q8)", s)
}

// BytesPerElem returns the encoded element size.
func (e Encoding) BytesPerElem() int {
	switch e {
	case Float16:
		return 2
	case Quant8:
		return 1
	}
	return 4
}

// decodeFLOPsPerElem is the arithmetic charged per decoded element: raw is
// a pure copy; f16 is one shift/widen; q8 is a multiply-add against the
// page range.
func (e Encoding) decodeFLOPsPerElem() float64 {
	switch e {
	case Float16:
		return 1
	case Quant8:
		return 2
	}
	return 0
}

// page is one encoded page resident in a BlockCache: PageRows (or fewer,
// for the table's last page) rows of dim elements each.
type page struct {
	data []byte
	// minV and maxV bound the page's values; Quant8 decodes against them.
	minV, maxV float32
	rows       int
}

// CacheBytes implements blockcache.Block: encoded payload plus page
// metadata.
func (p *page) CacheBytes() int64 { return int64(len(p.data)) + 8 }

// encodePage encodes src (rows*dim float32s, row-major) with enc. The
// output is deterministic in src alone, so an evicted page re-encodes to
// identical bytes — decoded values never depend on cache history.
func encodePage(enc Encoding, src []float32, rows, dim int) *page {
	p := &page{rows: rows, data: make([]byte, rows*dim*enc.BytesPerElem())}
	if len(src) > 0 {
		p.minV, p.maxV = src[0], src[0]
		for _, x := range src {
			if x < p.minV {
				p.minV = x
			}
			if x > p.maxV {
				p.maxV = x
			}
		}
	}
	switch enc {
	case Raw:
		for i, x := range src {
			bits := math.Float32bits(x)
			p.data[4*i] = byte(bits)
			p.data[4*i+1] = byte(bits >> 8)
			p.data[4*i+2] = byte(bits >> 16)
			p.data[4*i+3] = byte(bits >> 24)
		}
	case Float16:
		for i, x := range src {
			h := uint16(math.Float32bits(x) >> 16)
			p.data[2*i] = byte(h)
			p.data[2*i+1] = byte(h >> 8)
		}
	case Quant8:
		scale := float64(p.maxV) - float64(p.minV)
		if scale > 0 {
			inv := 255 / scale
			for i, x := range src {
				q := math.Round((float64(x) - float64(p.minV)) * inv)
				p.data[i] = byte(q)
			}
		} // degenerate page (all equal): zeros decode to minV
	default:
		panic(fmt.Sprintf("featstore: encodePage: %v", enc))
	}
	return p
}

// decodeRow decodes row r (within the page) into dst[:dim].
func (p *page) decodeRow(enc Encoding, r, dim int, dst []float32) {
	switch enc {
	case Raw:
		base := 4 * r * dim
		for j := 0; j < dim; j++ {
			o := base + 4*j
			bits := uint32(p.data[o]) | uint32(p.data[o+1])<<8 |
				uint32(p.data[o+2])<<16 | uint32(p.data[o+3])<<24
			dst[j] = math.Float32frombits(bits)
		}
	case Float16:
		base := 2 * r * dim
		for j := 0; j < dim; j++ {
			o := base + 2*j
			h := uint32(p.data[o]) | uint32(p.data[o+1])<<8
			dst[j] = math.Float32frombits(h << 16)
		}
	case Quant8:
		base := r * dim
		step := (float64(p.maxV) - float64(p.minV)) / 255
		for j := 0; j < dim; j++ {
			dst[j] = float32(float64(p.minV) + float64(p.data[base+j])*step)
		}
	default:
		panic(fmt.Sprintf("featstore: decodeRow: %v", enc))
	}
}
