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

// profiledModules are the simulator packages whose CPU share a traced run
// reports as <module>.self_frac. Stacks with no simulator frame land in
// runtime.gc_frac (garbage-collector workers), runtime.sched_frac
// (goroutine switches, whose g0 stack no longer shows the goroutine
// that parked: here the handoff between sim processes) or, like frames
// of any other package, other.self_frac; together they account for every
// sample.
var profiledModules = []string{
	"sim", "kernel", "libmpk", "core", "epk", "dpti", "hw", "tlb", "pagetable", "mm",
	"replay", "snapshot", "scenario", "workload", "metrics",
}

const simulatorPrefix = "vdom/internal/"

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// profileSamples are the stacks of a CPU profile, leaf frame first.
type profileSamples struct {
	stacks [][]string
	counts []int64
	total  int64
}

// stop ends the profile and decodes it.
func (p *cpuProfile) stop() (*profileSamples, error) {
	pprof.StopCPUProfile()
	s, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return s, nil
}

// attributeSamples charges every sample to the innermost simulator
// module on its stack: runtime frames (allocation, channel operations,
// assists) count for the simulator code that called them. A stack with
// no simulator frame is garbage collection when it is a GC worker, and
// other (the benchmark itself, idle scheduling) otherwise.
func attributeSamples(s *profileSamples) map[string]float64 {
	charged := map[string]int64{}
	for i, stack := range s.stacks {
		charged[bucketOf(stack)] += s.counts[i]
	}
	out := map[string]float64{}
	for _, m := range append(profiledModules, "other") {
		out[m+".self_frac"] = frac(charged[m], s.total)
	}
	out["runtime.gc_frac"] = frac(charged["runtime.gc"], s.total)
	out["runtime.sched_frac"] = frac(charged["runtime.sched"], s.total)
	return out
}

func bucketOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, simulatorPrefix); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			for _, m := range profiledModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.mcall" || fn == "runtime.schedule" || fn == "runtime.findRunnable" {
			return "runtime.sched"
		}
	}
	return "other"
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork)", "runtime.(*mheap).reclaim"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func frac(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's stack of
// function names and its sample count.
func parseProfile(gz []byte) (*profileSamples, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		protoErrs error
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) {
		switch num {
		case 2: // Sample
			var sm sample
			first := true
			protoErrs = errors.Join(protoErrs, protoFields(b, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					sm.locs = appendPacked(sm.locs, v, b)
				case 2:
					vals := appendPacked(nil, v, b)
					if first && len(vals) > 0 {
						sm.count, first = int64(vals[0]), false
					}
				}
			}))
			samples = append(samples, sm)
		case 4: // Location
			var id uint64
			var fns []uint64
			protoErrs = errors.Join(protoErrs, protoFields(b, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // Line
					protoErrs = errors.Join(protoErrs, protoFields(b, func(num int, v uint64, _ []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			protoErrs = errors.Join(protoErrs, protoFields(b, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, protoErrs); err != nil {
		return nil, err
	}
	out := &profileSamples{}
	for _, sm := range samples {
		var stack []string
		for _, l := range sm.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out.stacks = append(out.stacks, stack)
		out.counts = append(out.counts, sm.count)
		out.total += sm.count
	}
	return out, nil
}

// protoFields walks the fields of one protobuf message, passing varint
// fields as v and length-delimited ones as b.
func protoFields(b []byte, fn func(num int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(num, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either
// packed (b) or as a single value (v).
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
