package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuByPackage attributes the samples of a CPU profile (the gzipped
// profile.proto runtime/pprof writes) to the innermost frame on each stack
// that belongs to a package of the program, wholegraph/internal/<pkg>.
// Inlined frames count, so work inlined into a caller is still charged to
// the package it was written in. Samples with no such frame go to
// "runtime". Values are CPU nanoseconds.
func cpuByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUvarints(s.locs, v, b)
				case 2:
					for _, u := range appendUvarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	const prefix = "wholegraph/internal/"
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		pkg := "runtime"
	stack:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				ni := funcs[fn]
				if ni < 0 || ni >= int64(len(strs)) {
					continue
				}
				if name, ok := strings.CutPrefix(strs[ni], prefix); ok {
					pkg, _, _ = strings.Cut(name, ".")
					pkg, _, _ = strings.Cut(pkg, "/")
					break stack
				}
			}
		}
		out[pkg] += float64(s.values[1])
	}
	return out, nil
}

// walk calls fn for every field of a protobuf message: v holds a varint
// or fixed value, b the bytes of a length-delimited one.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated integer field's values: one varint
// when unpacked (b == nil), a packed run otherwise.
func appendUvarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
