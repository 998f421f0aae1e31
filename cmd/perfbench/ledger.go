package main

// The host-time ledger: a runtime/pprof CPU profile of the timed phase,
// decoded here with the standard library only, with every sample charged
// to one layer. A sample belongs to the innermost frame that lies in a
// repo module; runtime and standard-library frames above it (malloc,
// memmove, memclr, map and sort helpers) are charged to that module, so
// an allocation made by the ucx drain is ucx time. The shared data
// packages ir and isa are treated like the standard library and charged
// to their caller: engines read guest memory through ir, and the planner
// prices through isa. Samples with no repo frame at all belong to the Go
// runtime: background GC work to go.gc, the rest to go. Only samples
// without any symbolized frame stay unattributed.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ledgerLayers lists the ledger's rows in report order.
var ledgerLayers = []string{
	"sim", "fabric", "ucx", "ifunc", "core", "place", "mcode", "jit", "obs",
	"harness", "go", "go.gc", "unattributed",
}

// layerOf maps a repo package to its layer ("" for helper packages).
var layerOf = map[string]string{
	"sim": "sim", "fabric": "fabric", "ucx": "ucx", "ifunc": "ifunc",
	"core": "core", "place": "place", "mcode": "mcode", "obs": "obs",
	"jit": "jit", "toolchain": "jit", "passes": "jit", "bitcode": "jit",
	"linker": "jit", "elfx": "jit", "minilang": "jit", "testbed": "harness",
}

type ledger struct {
	// ns is the CPU time per layer; total its sum.
	ns      map[string]int64
	total   int64
	samples int64
	// byPhase is the CPU time per benchmark phase label.
	byPhase map[string]int64
}

// funcLayer classifies one function name: a layer for repo code, "" for
// a helper (runtime, standard library, ir, isa).
func funcLayer(name string) string {
	if strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "threechains/perfbench") {
		return "harness"
	}
	const repo = "threechains/internal/"
	if !strings.HasPrefix(name, repo) {
		return ""
	}
	pkg, _, _ := strings.Cut(name[len(repo):], ".")
	return layerOf[pkg]
}

// isGCWorker reports whether a runtime-only stack is background GC work.
func isGCWorker(name string) bool {
	switch name {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
		return true
	}
	return false
}

// sampleLayer charges one stack (innermost frame first).
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if l := funcLayer(fn); l != "" {
			return l
		}
	}
	if len(stack) == 0 {
		return "unattributed"
	}
	for _, fn := range stack {
		if isGCWorker(fn) {
			return "go.gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") {
			return "go"
		}
	}
	return "unattributed"
}

func buildLedger(gz []byte) (ledger, error) {
	lg := ledger{ns: map[string]int64{}, byPhase: map[string]int64{}}
	p, err := parseProfile(gz)
	if err != nil {
		return lg, err
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		ns := s.value
		lg.ns[sampleLayer(stack)] += ns
		lg.total += ns
		lg.samples += s.count
		lg.byPhase[s.phase] += ns
	}
	return lg, nil
}

// The subset of profile.proto the ledger reads.
type profSample struct {
	locs  []uint64
	count int64 // samples merged into this stack
	value int64 // CPU nanoseconds
	phase string
}

type profile struct {
	samples []profSample
	// locFuncs maps a location id to its function names, innermost
	// (inlined) first.
	locFuncs map[uint64][]string
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs           []uint64
		values         []int64
		labelK, labelV []int64
	}
	var (
		strs     []string
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location → function ids
		funcName = map[uint64]int64{}    // function id → string index
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3: // label
					var k, sv int64
					if err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						switch f {
						case 1:
							k = int64(v)
						case 2:
							sv = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labelK, s.labelV = append(s.labelK, k), append(s.labelV, sv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fns := range locLines { //repolint:allow maprange — fills a map, order-insensitive
		for _, f := range fns {
			p.locFuncs[id] = append(p.locFuncs[id], str(funcName[f]))
		}
	}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("CPU profile sample without a time value")
		}
		ps := profSample{locs: s.locs, count: s.values[0], value: s.values[1], phase: "none"}
		for i, k := range s.labelK {
			if str(k) == "phase" {
				ps.phase = str(s.labelV[i])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// appendVarints decodes a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pbFields walks the fields of one protobuf message: fn receives varint
// values in v and length-delimited payloads in b.
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
