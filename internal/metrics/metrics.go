// Package metrics is the unified observability layer: a central registry
// that every simulated-machine layer (hw, tlb, pagetable, mm, kernel,
// core, libmpk, epk, chaos) publishes into, so one experiment run yields
// one machine-readable snapshot instead of five disconnected Stats
// structs.
//
// The registry holds three kinds of data:
//
//   - Named event counters ("tlb/hits", "core/evictions", ...), following
//     the layer/event naming scheme catalogued in OBSERVABILITY.md.
//     Layers either push them live (Add) or are harvested at snapshot
//     time from their existing Stats structs (Set).
//   - Cycle attribution by (layer, operation): every simulated cycle an
//     instrumented code path charges is attributed to exactly one
//     (layer, operation) account, so an experiment's total cycles
//     decompose into a breakdown table — the view the paper argues its
//     case from (§7, Table 3).
//   - Cost histograms (log2 buckets) for domain-activation outcomes
//     (map / evict / switch / migrate, flowchart ①–⑧).
//
// Everything is nil-safe: a nil *Registry (and a nil *Trace, see
// trace.go) no-ops on every method, so instrumented hot paths cost one
// predictable branch and zero allocations when observability is off.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// CycleKey identifies one cycle-attribution account.
type CycleKey struct {
	// Layer is the publishing subsystem (hw, tlb, pagetable, mm, kernel,
	// core, libmpk, epk, chaos, workload).
	Layer string
	// Op is the operation within the layer (e.g. "flush", "wrvdr").
	Op string
}

// histBuckets is the number of log2 histogram buckets: bucket i counts
// observations v with bit length i, i.e. v in [2^(i-1), 2^i).
const histBuckets = 65

type histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [histBuckets]uint64
}

// Registry is the central metrics store. The zero value is not usable;
// call New. A nil *Registry is a valid, free no-op sink.
type Registry struct {
	counters map[string]uint64
	cycles   map[CycleKey]uint64
	total    uint64
	hists    map[string]*histogram
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		cycles:   make(map[CycleKey]uint64),
		hists:    make(map[string]*histogram),
	}
}

// Enabled reports whether the registry collects anything (false on nil).
func (r *Registry) Enabled() bool { return r != nil }

// Add increments the named counter by n.
func (r *Registry) Add(name string, n uint64) {
	if r == nil || n == 0 {
		return
	}
	r.counters[name] += n
}

// Set overwrites the named counter — used when harvesting cumulative
// Stats structs at snapshot time, so repeated snapshots don't double
// count.
func (r *Registry) Set(name string, v uint64) {
	if r == nil {
		return
	}
	r.counters[name] = v
}

// Counter returns the current value of the named counter.
func (r *Registry) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// Attribute charges cyc cycles to the (layer, op) account. The invariant
// instrumented code maintains is that every simulated cycle an experiment
// observes is attributed exactly once, so TotalCycles decomposes without
// residue.
func (r *Registry) Attribute(layer, op string, cyc uint64) {
	if r == nil || cyc == 0 {
		return
	}
	r.cycles[CycleKey{layer, op}] += cyc
	r.total += cyc
}

// TotalCycles returns the sum of all attributed cycles.
func (r *Registry) TotalCycles() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Cycles returns the cycles attributed to one (layer, op) account.
func (r *Registry) Cycles(layer, op string) uint64 {
	if r == nil {
		return 0
	}
	return r.cycles[CycleKey{layer, op}]
}

// LayerCycles returns the cycles attributed to a layer across all of its
// operations.
func (r *Registry) LayerCycles(layer string) uint64 {
	if r == nil {
		return 0
	}
	var sum uint64
	for k, v := range r.cycles {
		if k.Layer == layer {
			sum += v
		}
	}
	return sum
}

// Observe records one value in the named log2-bucket histogram.
func (r *Registry) Observe(name string, v uint64) {
	if r == nil {
		return
	}
	h := r.hists[name]
	if h == nil {
		h = &histogram{min: ^uint64(0)}
		r.hists[name] = h
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(v)]++
}

// Reset clears every counter, attribution, and histogram.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.counters = make(map[string]uint64)
	r.cycles = make(map[CycleKey]uint64)
	r.hists = make(map[string]*histogram)
	r.total = 0
}

// Merge folds another registry's counters, cycle attributions, and
// histograms into r with Add semantics. The parallel experiment engine
// uses it to aggregate per-cell registries — each worker publishes into
// its own private registry, and the collector merges them in cell order
// once the fan-out completes, so no registry is ever written from two
// goroutines. Merging is commutative, so the resulting snapshot is
// byte-identical for every worker count. A nil receiver or nil argument
// is a no-op.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	for name, v := range o.counters {
		r.counters[name] += v
	}
	for k, v := range o.cycles {
		r.cycles[k] += v
	}
	r.total += o.total
	for name, oh := range o.hists {
		h := r.hists[name]
		if h == nil {
			h = &histogram{min: ^uint64(0)}
			r.hists[name] = h
		}
		h.count += oh.count
		h.sum += oh.sum
		if oh.count > 0 && oh.min < h.min {
			h.min = oh.min
		}
		if oh.max > h.max {
			h.max = oh.max
		}
		for i, c := range oh.buckets {
			h.buckets[i] += c
		}
	}
}

// CycleEntry is one (layer, operation) line of a snapshot's cycle
// breakdown.
type CycleEntry struct {
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Cycles uint64 `json:"cycles"`
}

// HistBucket is one populated histogram bucket: Count observations were
// at most Le (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistSnapshot summarizes one histogram.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets"`
}

// Snapshot is the stable, diffable export of a registry: counters sorted
// by name (encoding/json sorts map keys), the cycle breakdown sorted by
// (layer, op), and histogram summaries. Two runs of the same seeded
// experiment produce byte-identical snapshots.
type Snapshot struct {
	// Schema identifies the snapshot format.
	Schema string `json:"schema"`
	// TotalCycles is the sum of every attributed cycle; the Cycles
	// entries sum to it exactly.
	TotalCycles uint64 `json:"total_cycles"`
	// Cycles is the (layer, operation) attribution breakdown.
	Cycles []CycleEntry `json:"cycles"`
	// Counters maps metric names to event counts.
	Counters map[string]uint64 `json:"counters"`
	// Histograms maps histogram names to their summaries.
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// SnapshotSchema is the Snapshot.Schema value written by this package.
const SnapshotSchema = "vdom-metrics/v1"

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Schema:     SnapshotSchema,
		Counters:   map[string]uint64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		s.Cycles = []CycleEntry{}
		return s
	}
	s.TotalCycles = r.total
	s.Cycles = make([]CycleEntry, 0, len(r.cycles))
	for k, v := range r.cycles {
		s.Cycles = append(s.Cycles, CycleEntry{Layer: k.Layer, Op: k.Op, Cycles: v})
	}
	sort.Slice(s.Cycles, func(i, j int) bool {
		if s.Cycles[i].Layer != s.Cycles[j].Layer {
			return s.Cycles[i].Layer < s.Cycles[j].Layer
		}
		return s.Cycles[i].Op < s.Cycles[j].Op
	})
	for n, v := range r.counters {
		s.Counters[n] = v
	}
	for n, h := range r.hists {
		hs := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		if h.count == 0 {
			hs.Min = 0
		}
		le := uint64(0)
		for i, c := range h.buckets {
			if i > 0 {
				le = 1<<uint(i) - 1
			}
			if c > 0 {
				hs.Buckets = append(hs.Buckets, HistBucket{Le: le, Count: c})
			}
		}
		s.Histograms[n] = hs
	}
	return s
}

// LayerTotals sums the snapshot's cycle entries per layer, sorted by
// layer name — the per-layer breakdown experiments report.
func (s *Snapshot) LayerTotals() []CycleEntry {
	sums := map[string]uint64{}
	for _, e := range s.Cycles {
		sums[e.Layer] += e.Cycles
	}
	out := make([]CycleEntry, 0, len(sums))
	for l, v := range sums {
		out = append(out, CycleEntry{Layer: l, Cycles: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// WriteJSON renders the snapshot as indented JSON. Output is stable:
// equal snapshots produce identical bytes.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and writes it as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// Source is implemented by layers that can be harvested into a registry.
// The emit callback receives fully-qualified counter names ("layer/event")
// and their cumulative values.
type Source interface {
	EmitMetrics(emit func(name string, v uint64))
}

// Harvest pulls every source's counters into the registry with Set
// semantics (cumulative gauges; safe to call repeatedly).
func (r *Registry) Harvest(sources ...Source) {
	if r == nil {
		return
	}
	for _, src := range sources {
		if src == nil {
			continue
		}
		src.EmitMetrics(r.Set)
	}
}

// Accumulate pulls every source's counters into the registry with Add
// semantics — used when one registry aggregates many short-lived
// sub-experiments (e.g. the Table 4 grid), each with fresh layers.
func (r *Registry) Accumulate(sources ...Source) {
	if r == nil {
		return
	}
	for _, src := range sources {
		if src == nil {
			continue
		}
		src.EmitMetrics(r.Add)
	}
}

// CheckConsistency verifies the snapshot's internal invariants: the cycle
// entries sum to TotalCycles and histogram bucket counts sum to their
// Count. It returns nil when consistent.
func (s *Snapshot) CheckConsistency() error {
	var sum uint64
	for _, e := range s.Cycles {
		sum += e.Cycles
	}
	if sum != s.TotalCycles {
		return fmt.Errorf("metrics: cycle entries sum to %d, total_cycles is %d", sum, s.TotalCycles)
	}
	for n, h := range s.Histograms {
		var c uint64
		for _, b := range h.Buckets {
			c += b.Count
		}
		if c != h.Count {
			return fmt.Errorf("metrics: histogram %q buckets sum to %d, count is %d", n, c, h.Count)
		}
	}
	return nil
}
