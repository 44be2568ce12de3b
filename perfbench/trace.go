package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tracer records host-time spans around the benchmark's calls into each
// layer, plus aggregated per-call timers for calls too frequent to span
// and simulated counts. Spans are kept in memory and written out as
// Chrome trace JSON when the run ends. A nil *tracer records nothing, so
// untraced cells call it unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	timers map[string]*timer
	counts map[string]float64
	sums   map[string]float64
	// round is the pass round being run; counts are kept for round 0
	// only, so they do not depend on how many rounds fit in the time.
	round int
}

// span is one timed call. parent indexes the enclosing span (-1 at the
// top); child is the time covered by direct children, so self time is
// dur - child.
type span struct {
	name, detail string
	start, dur   time.Duration
	parent       int
	child        time.Duration
}

// timer accumulates host time over many calls.
type timer struct {
	total time.Duration
	n     int
}

func (t *timer) add(d time.Duration) {
	t.total += d
	t.n++
}

// avg is the mean time per call in the given unit.
func (t *timer) avg(unit time.Duration) float64 {
	if t == nil || t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n) / float64(unit)
}

// stamp starts a per-call timing when tm is live.
func stamp(tm *timer) time.Time {
	if tm == nil {
		return time.Time{}
	}
	return time.Now()
}

// since ends a per-call timing started by stamp.
func (t *timer) since(t0 time.Time) {
	if t != nil {
		t.add(time.Since(t0))
	}
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), timers: map[string]*timer{}, counts: map[string]float64{}, sums: map[string]float64{}}
}

// begin opens a span named after the layer call, e.g. "replay.encode".
func (t *tracer) begin(name, detail string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, detail: detail, start: time.Since(t.origin), parent: parent})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.dur = time.Since(t.origin) - s.start
	if s.parent >= 0 {
		t.spans[s.parent].child += s.dur
	}
	return s.dur
}

// timer returns the named per-call timer, or nil when untraced.
func (t *tracer) timer(name string) *timer {
	if t == nil {
		return nil
	}
	tm := t.timers[name]
	if tm == nil {
		tm = &timer{}
		t.timers[name] = tm
	}
	return tm
}

// count adds v to a simulated count during round 0.
func (t *tracer) count(name string, v float64) {
	if t == nil || t.round != 0 {
		return
	}
	t.counts[name] += v
}

// sum adds v to a running total over every round, for rates that
// divide by span time.
func (t *tracer) sum(name string, v float64) {
	if t == nil {
		return
	}
	t.sums[name] += v
}

// rate is sums[name] per microsecond of the named spans: bytes per
// microsecond read as MB/s.
func (t *tracer) rate(name, spanName string) float64 {
	d := t.spanTotal(spanName)
	if d == 0 {
		return 0
	}
	return t.sums[name] / (float64(d) / float64(time.Microsecond))
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n           int
	total, self time.Duration
}

func (t *tracer) spanStats() map[string]*spanStat {
	stats := map[string]*spanStat{}
	for _, s := range t.spans {
		st := stats[s.name]
		if st == nil {
			st = &spanStat{}
			stats[s.name] = st
		}
		st.n++
		st.total += s.dur
		st.self += s.dur - s.child
	}
	return stats
}

// spanMS is the mean duration of the named spans in milliseconds.
func (t *tracer) spanMS(name string) float64 {
	st := t.spanStats()[name]
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.total) / float64(st.n) / float64(time.Millisecond)
}

// spanTotal is the summed duration of the named spans.
func (t *tracer) spanTotal(name string) time.Duration {
	if st := t.spanStats()[name]; st != nil {
		return st.total
	}
	return 0
}

// printSpanTable prints one row per span name: calls, total and self time.
func (t *tracer) printSpanTable(out io.Writer) {
	stats := t.spanStats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].self > stats[names[j]].self })
	fmt.Fprintf(out, "%-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(out, "%-28s %8d %12.3f %12.3f\n", n, st.n,
			float64(st.total)/float64(time.Millisecond), float64(st.self)/float64(time.Millisecond))
	}
	tnames := make([]string, 0, len(t.timers))
	for n := range t.timers {
		tnames = append(tnames, n)
	}
	sort.Strings(tnames)
	for _, n := range tnames {
		tm := t.timers[n]
		fmt.Fprintf(out, "%-28s %8d %12.3f %12s\n", n+" (timer)", tm.n, float64(tm.total)/float64(time.Millisecond), "-")
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto loads; ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace JSON. The category is the
// layer (the span name up to its first dot); args carry the span id, the
// id of the span that caused it, the id of the top-level span (the cell,
// or a set-up call) that all spans of one cell share, and the span's
// detail, such as the cell name.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	roots := make([]int, len(t.spans)) // a parent precedes its children
	for i, s := range t.spans {
		roots[i] = i
		if s.parent >= 0 {
			roots[i] = roots[s.parent]
		}
		cat, _, _ := strings.Cut(s.name, ".")
		args := map[string]any{"id": i, "parent": s.parent, "root": roots[i]}
		if s.detail != "" {
			args["detail"] = s.detail
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / float64(time.Microsecond), Dur: float64(s.dur) / float64(time.Microsecond),
			Pid: 1, Tid: 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	return nil
}
