package metrics

import (
	"encoding/json"
	"io"
)

// traceEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// "X" is a complete span, "i" an instant.
type traceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Ph    string            `json:"ph"`
	Ts    uint64            `json:"ts"`
	Dur   uint64            `json:"dur,omitempty"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

// Trace is a timeline sink: it renders the internal/sim event stream and
// core.Tracer decisions as Chrome trace-event JSON, loadable in
// about://tracing or https://ui.perfetto.dev. Timestamps are simulated
// cycles reported as microseconds (1 cycle = 1 µs), so Perfetto's time
// axis reads directly in cycles.
//
// A nil *Trace is a valid no-op sink, mirroring *Registry.
type Trace struct {
	events []traceEvent
}

// NewTrace returns an empty, enabled trace sink.
func NewTrace() *Trace {
	return &Trace{}
}

// Enabled reports whether the trace collects anything (false on nil).
func (t *Trace) Enabled() bool { return t != nil }

// Span records a complete duration event: tid's track shows name from
// start for dur cycles. The signature matches sim.Tracer, so a *Trace
// plugs into sim.Env.SetTracer directly.
func (t *Trace) Span(name string, tid int, start, dur uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "sim", Ph: "X", Ts: start, Dur: dur, Tid: tid,
	})
}

// Instant records a zero-duration marker on tid's track at ts.
func (t *Trace) Instant(cat, name string, tid int, ts uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "i", Ts: ts, Tid: tid, Scope: "t",
	})
}

// Decision records a core.Tracer decision (map / evict / switch /
// migrate / vds-alloc / free) as a span of the decision's cost, carrying
// its numeric details (vdom, vds, pdom, cost) as args.
func (t *Trace) Decision(name string, tid int, ts, dur uint64, args map[string]uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "core", Ph: "X", Ts: ts, Dur: dur, Tid: tid, Args: args,
	})
}

// Append transfers another trace's events to the end of t, preserving
// their order. The parallel experiment engine collects per-cell traces
// (each timestamped on its own cell's cycle clock, exactly as a shared
// sink would record them) and appends them in cell order, so the merged
// trace is byte-identical to a sequential run's. A nil receiver or nil
// argument is a no-op.
func (t *Trace) Append(o *Trace) {
	if t == nil || o == nil {
		return
	}
	t.events = append(t.events, o.events...)
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// WriteJSON renders the trace as Chrome trace-event JSON. Output is
// stable: two identical seeded runs produce identical bytes.
func (t *Trace) WriteJSON(w io.Writer) error {
	evs := []traceEvent{}
	if t != nil {
		evs = t.events
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
