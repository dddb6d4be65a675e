package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layers a CPU or allocation sample can be charged to: the repo modules the
// benchmark measures, the benchmark's own code, and the Go runtime for
// samples with no repo frame at all (GC workers, the scheduler, timers).
var layerOf = map[string]string{
	"siphoc/internal/netem":        "netem",
	"siphoc/internal/routing/olsr": "olsr",
	"siphoc/internal/slp":          "slp",
	"siphoc/internal/sip":          "sip",
	"siphoc/internal/core":         "core",
	"siphoc/internal/voip":         "voip",
	"siphoc/internal/rtp":          "rtp",
	"siphoc/internal/internet":     "internet",
	"siphoc/internal/clock":        "clock",
	"siphoc/internal/obs":          "obs",
	"main":                         "bench", // the benchmark's binary
	"siphoc/siphocbench":           "bench", // the same code under go test
}

// shareLayers lists every bucket a share is reported for, so the shares
// of one profile sum to 100 %.
var shareLayers = []string{"netem", "olsr", "slp", "sip", "core", "voip", "rtp", "internet", "clock", "obs", "bench", "runtime"}

// funcPackage returns the import path of a fully qualified Go function
// name such as "siphoc/internal/netem.(*Network).deliver.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// chargeLayer walks a stack from the innermost frame outwards and returns
// the layer of the first frame that belongs to a measured repo module.
// Helpers outside that list (wire codecs, the routing envelope, the
// facade) pass their cost on to the module that called them.
func chargeLayer(funcs []string) string {
	for _, fn := range funcs {
		if l, ok := layerOf[funcPackage(fn)]; ok {
			return l
		}
	}
	return "runtime"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	weights := map[string]float64{}
	for _, s := range p.samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				funcs = append(funcs, p.funcName[fid])
			}
		}
		v := float64(s.values[len(s.values)-1])
		weights[chargeLayer(funcs)] += v
	}
	return normalise(weights), nil
}

// allocDelta is a snapshot of the runtime's allocation profile, keyed by
// stack, so two snapshots give what each stack allocated in between.
type allocDelta map[[32]uintptr]allocCount

type allocCount struct{ bytes, objects int64 }

func allocSnapshot() allocDelta {
	runtime.GC() // the profile publishes as of the last completed cycle
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(allocDelta, len(recs))
	for _, r := range recs {
		c := out[r.Stack0]
		c.bytes += r.AllocBytes
		c.objects += r.AllocObjects
		out[r.Stack0] = c
	}
	return out
}

// sampledBytes undoes the profile's sampling the way pprof does: an
// allocation of s bytes is recorded with probability 1-exp(-s/rate), so
// without this small allocations would be charged far less than they cost.
func sampledBytes(c allocCount, rate int) float64 {
	if c.objects <= 0 || c.bytes <= 0 {
		return 0
	}
	if rate <= 1 {
		return float64(c.bytes)
	}
	avg := float64(c.bytes) / float64(c.objects)
	return float64(c.bytes) / (1 - math.Exp(-avg/float64(rate)))
}

// allocShares charges the bytes allocated between two snapshots to layers.
func allocShares(before, after allocDelta) map[string]float64 {
	weights := map[string]float64{}
	for stk, a := range after {
		b := before[stk]
		d := allocCount{bytes: a.bytes - b.bytes, objects: a.objects - b.objects}
		if d.bytes <= 0 {
			continue
		}
		var funcs []string
		var pcs []uintptr
		for _, pc := range stk {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		frames := runtime.CallersFrames(pcs)
		own := false
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			own = own || strings.HasSuffix(f.Function, ".allocSnapshot")
			if !more {
				break
			}
		}
		// The snapshot taken before the phase is itself allocated after
		// its collection and published by the next one: not the phase's.
		if !own {
			weights[chargeLayer(funcs)] += sampledBytes(d, runtime.MemProfileRate)
		}
	}
	return normalise(weights)
}

func normalise(w map[string]float64) map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	out := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		if total > 0 {
			out[l] = 100 * w[l] / total
		} else {
			out[l] = 0
		}
	}
	return out
}

// profile is the part of a pprof protobuf the benchmark needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location → function IDs, innermost first
	funcName map[uint64]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errProto = errors.New("cpu profile: malformed protobuf")

// pbField is one decoded protobuf field: a varint value or a byte payload.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = pbVarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes the fields of profile.proto the shares need:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{}
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2:
			var s profSample
			err := pbFields(f.bytes, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = pbUints(s.locs, g)
				case 2:
					var vs []uint64
					vs, err = pbUints(nil, g)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(s.values) > 0 {
				p.samples = append(p.samples, s)
			}
		case 4:
			var id uint64
			var fids []uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line: function_id is field 1
					return pbFields(g.bytes, func(h pbField) error {
						if h.num == 1 {
							fids = append(fids, h.v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fids
		case 5:
			var id, name uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcStr[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si >= uint64(len(strs)) {
			return nil, errProto
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}
