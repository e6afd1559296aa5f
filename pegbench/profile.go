package main

// Per-layer attribution of a CPU profile. runtime/pprof writes a
// gzipped profile.proto; this file decodes just the messages the
// attribution needs (samples, locations, functions, strings) with a
// minimal protobuf reader, so the benchmark needs nothing outside the
// standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerPrefix is the import-path prefix of the program's layers: each
// package under internal/ is one layer.
const layerPrefix = "repro/internal/"

// runtimeLayer receives samples with no program frame on the stack:
// GC workers, the scheduler and anything else the runtime does on its
// own account.
const runtimeLayer = "runtime"

// attribution counts CPU profile samples per layer, charged to the
// innermost program frame.
type attribution struct {
	samples map[string]int64
	total   int64
}

func newAttribution() *attribution {
	return &attribution{samples: map[string]int64{}}
}

// share is the layer's fraction of all samples.
func (a *attribution) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.samples[layer]) / float64(a.total)
}

// add charges every sample of one gzipped CPU profile. A sample goes to
// the innermost repro/internal/<layer> frame on its stack (inlined
// frames included), so runtime and standard-library frames such as
// memmove count as self time of the layer that called them. Samples
// with no program frame go to runtimeLayer.
func (a *attribution) add(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	layerOf := map[uint64]string{} // location id -> innermost layer ("" if none)
	for id, loc := range p.locations {
		for _, fn := range loc {
			if l := layerName(p.funcName(fn)); l != "" {
				layerOf[id] = l
				break
			}
		}
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			return errors.New("profile: sample without a count")
		}
		layer := runtimeLayer
		for _, id := range s.locs {
			if l := layerOf[id]; l != "" {
				layer = l
				break
			}
		}
		a.samples[layer] += s.values[0]
		a.total += s.values[0]
	}
	return nil
}

// dense reports whether every layer holding more than minShare of the
// samples rests on at least minLayerSamples of them.
func (a *attribution) dense() bool {
	if a.total == 0 {
		return false
	}
	for l, n := range a.samples {
		if a.share(l) > minShare && n < minLayerSamples {
			return false
		}
	}
	return true
}

// layerName maps a profile function name to its layer, or "" for a
// frame outside the program's internal packages.
func layerName(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64  // [samples, cpu nanoseconds]; only the count is used
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	funcs     map[uint64]int64    // function id -> name string index
	strs      []string
}

func (p *profile) funcName(id uint64) string {
	i, ok := p.funcs[id]
	if !ok || i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// profile.proto field numbers.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, v, b)
				case fSampleValue:
					var u []uint64
					if err := appendVarints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case fProfileString:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints decodes a repeated varint field, which the encoder
// writes either one value per field (b == nil) or packed into one
// length-delimited field.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or (length-delimited fields) its
// bytes. Fixed-width fields are skipped; the profile uses none the
// attribution reads.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
