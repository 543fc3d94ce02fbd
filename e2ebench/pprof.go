package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the profile.proto files runtime/pprof writes: just
// the sample values, their stacks and the function names, enough to
// attribute samples to packages without a dependency outside the
// standard library.

// profile is a decoded pprof profile.
type profile struct {
	sampleTypes []string // value type names, e.g. "cpu", "alloc_space"
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost inlined frame first
	funcName    map[uint64]int64    // function id → string table index
	strs        []string
}

type sample struct {
	locs []uint64 // leaf first
	vals []int64
}

// valueIndex returns the position of the named sample type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (have %v)", typ, p.sampleTypes)
}

// each calls f with every sample's stack of function names, leaf first,
// and its value of sample type vi.
func (p *profile) each(vi int, f func(stack []string, v int64)) {
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if si, ok := p.funcName[fid]; ok && si >= 0 && int(si) < len(p.strs) {
					stack = append(stack, p.strs[si])
				}
			}
		}
		if vi < len(s.vals) {
			f(stack, s.vals[vi])
		}
	}
}

// parseProfile decodes a (possibly gzipped) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var typeIdx []int64
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample: location_id=1, value=2
			var s sample
			if err := fields(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return repeated(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(w, v, pb, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location: id=1, line=4{function_id=1}
			var id uint64
			var funcs []uint64
			if err := fields(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // function: id=1, name=2
			var id uint64
			var name int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	for _, t := range typeIdx {
		name := ""
		if t >= 0 && int(t) < len(p.strs) {
			name = p.strs[t]
		}
		p.sampleTypes = append(p.sampleTypes, name)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling f with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either packed or unpacked
// form.
func repeated(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
