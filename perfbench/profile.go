package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets CPU samples are attributed to: the repo's
// packages on the path of an op, the benchmark driver, and runtime.
var cpuLayers = []string{
	"sphinx", "core", "cuckoo", "racehash", "rart", "fabric", "mem", "wire",
	"obs", "consistenthash", "driver", "runtime",
}

// layerOf maps a profiled function name to its layer: "sphinx" for the
// facade, the package name for sphinx/internal/<pkg>, "driver" for this
// benchmark and the key/op generators it calls, "" for code outside the
// repo (std library and runtime).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."),
		strings.HasPrefix(fn, "sphinx/internal/dataset."),
		strings.HasPrefix(fn, "sphinx/internal/ycsb."):
		return "driver"
	case strings.HasPrefix(fn, "sphinx/internal/"):
		rest := fn[len("sphinx/internal/"):]
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "sphinx."):
		return "sphinx"
	}
	return ""
}

// cpuByLayer attributes a gzipped pprof CPU profile: each sample's CPU
// time goes to the innermost frame that belongs to a repo package, so
// std-library and runtime frames count toward the repo code that called
// them; samples with no repo frame at all (GC workers, the profiler)
// count as runtime. It returns nanoseconds per layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.strings[p.funcName[fn]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += s.value
	}
	return out, nil
}

// profile is the part of profile.proto that attribution needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id -> string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
	cpuIndex int // index of the cpu/nanoseconds value
}

type sample struct {
	locs  []uint64 // leaf first
	value int64
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}, cpuIndex: -1}
	var sampleTypes [][2]int64
	var rawSamples [][]byte
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			rawSamples = append(rawSamples, data)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range sampleTypes {
		if t[0] < int64(len(p.strings)) && p.strings[t[0]] == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for _, raw := range rawSamples {
		var s sample
		var vals []int64
		err := fields(raw, func(n int, v uint64, d []byte) error {
			switch n {
			case 1:
				if d == nil {
					s.locs = append(s.locs, v)
					return nil
				}
				return packed(d, func(v uint64) { s.locs = append(s.locs, v) })
			case 2:
				if d == nil {
					vals = append(vals, int64(v))
					return nil
				}
				return packed(d, func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if p.cpuIndex >= len(vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s.value = vals[p.cpuIndex]
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks the fields of one protobuf message. Varint fields arrive
// as v with data nil; length-delimited ones as data. Fixed-width fields
// are skipped (profile.proto's fields of interest have none).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
	}
	return nil
}

func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
