package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run's third source: a CPU profile of the measured window,
// whose samples are charged to the repository module executing them.
// runtime/pprof writes a gzipped protobuf; the decoder below reads the
// few fields attribution needs, since the module takes no dependencies.

// cpuProfile records a CPU profile between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each module's share of the samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return moduleShares(&p.buf)
}

// moduleShares charges each sample to the innermost frame that belongs
// to the repository (a "crowdtopk" package, or this benchmark as
// "bench"); standard-library and runtime frames are charged to the repo
// frame that called them, and samples with no repo frame at all (GC
// workers, the scheduler, net/http plumbing) to "runtime". Keys are
// module names: "session" for the root package, else the path under
// internal/ (sub-packages fold into their parent, obs/log into obs).
func moduleShares(r io.Reader) (map[string]float64, error) {
	prof, err := parseProfile(r)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		mod := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				if m, ok := moduleOf(prof.funcName(fn)); ok {
					mod = m
					break frames
				}
			}
		}
		counts[mod] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for m, c := range counts {
		shares[m] = ratio(float64(c), float64(total))
	}
	return shares, nil
}

// moduleOf maps a profiled function name to its repository module.
func moduleOf(fn string) (string, bool) {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main", pkg == "crowdtopk/bench": // built as a command, or as its test
		return "bench", true
	case pkg == "crowdtopk":
		return "session", true
	case strings.HasPrefix(pkg, "crowdtopk/internal/"):
		mod := strings.TrimPrefix(pkg, "crowdtopk/internal/")
		if i := strings.IndexByte(mod, '/'); i >= 0 {
			mod = mod[:i]
		}
		return mod, true
	}
	return "", false
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location → function ids, innermost first
	funcs    map[uint64]int64    // function id → name string index
	strings  []string
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the Profile message fields attribution needs:
// sample (2), location (4), function (5) and string_table (6).
func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: function_id is field 1
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (b non-nil) or as a single value.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField walks one protobuf message. Varint fields arrive as v with
// b nil; length-delimited fields as b.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
	}
	return nil
}
