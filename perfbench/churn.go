package main

import (
	"bytes"
	"fmt"
	"reflect"

	"vdom"
	"vdom/internal/metrics"
	"vdom/internal/replay"
	"vdom/internal/scenario"
	"vdom/internal/snapshot"
)

var churnWorkload = workloadDef{
	name:    "domain-churn",
	opsUnit: "scenario ops per host second",
	build:   buildChurn,
	layers:  churnLayers,
}

// genChurn generates the domain-churn workload: one fault-free
// vdom-scenario/v1 spec with three churn-heavy phases. Why this
// workload: it is the write path of the layers domain-access reads —
// domain allocation, frees and re-protection turn into PTE writes,
// retags and TLB flushes — plus the replay and snapshot codecs, so a
// memo or codec change that speeds up domain-access but slows
// invalidation or encoding shows here. alloc-burst gives every domain a
// one-activation lifetime, protect-churn re-protects a wide per-client
// working set, and free-churn frees under a geometric lifetime with
// many clients. Sizes sit well inside the format's caps (clients ≤ 512,
// ops ≤ 65536, domains per client ≤ 64, cells ≤ 256) and are fixed so
// every seed does the same work; the seed is the spec seed every cell's
// random stream derives from.
func genChurn(seed uint64, tiny bool) *scenario.Spec {
	spec := &scenario.Spec{
		Format: scenario.FormatName,
		Name:   "perfbench-churn",
		Notes:  "Generated by perfbench: alloc, protect and free churn, fault-free.",
		Seed:   newRNG(seed, "domain-churn").next(),
		Cores:  4,
		Phases: []scenario.Phase{
			{Name: "alloc-burst", Clients: scenario.Ramp{Start: 4, End: 8, Steps: 2}, Ops: 700, DomainsPerClient: 5,
				Lifetime: scenario.Lifetime{Dist: scenario.LifeFixed, MeanOps: 1},
				Mix:      &scenario.Mix{Activate: 3, Churn: 6, Plain: 1}},
			{Name: "protect-churn", Clients: scenario.Ramp{Start: 6}, Ops: 800, DomainsPerClient: 12,
				Lifetime: scenario.Lifetime{Dist: scenario.LifeUniform, MeanOps: 3},
				Mix:      &scenario.Mix{Activate: 6, Churn: 3, Plain: 1}},
			{Name: "free-churn", Clients: scenario.Ramp{Start: 12}, Ops: 800, DomainsPerClient: 4,
				Lifetime: scenario.Lifetime{Dist: scenario.LifeGeometric, MeanOps: 2},
				Mix:      &scenario.Mix{Activate: 5, Churn: 4, Plain: 1}},
		},
	}
	if tiny {
		spec.Phases = []scenario.Phase{{Name: "tiny", Clients: scenario.Ramp{Start: 2}, Ops: 40, DomainsPerClient: 3,
			Lifetime: scenario.Lifetime{Dist: scenario.LifeFixed, MeanOps: 1}}}
	}
	return spec
}

// compileChurn compiles the spec for one kernel. A kernel whose domain
// capacity is fixed (EPK allocates monotonically from the cell's slot
// budget) gets each phase's op budget clamped to the slots left after
// the initial working set, so no allocation is refused: every op
// succeeds.
func compileChurn(e *env, spec *scenario.Spec, kernel string, fixedCapacity bool) (*scenario.Plan, error) {
	e.tr.begin("scenario.compile", kernel)
	plan, err := scenario.Compile(spec, kernel)
	e.tr.end()
	if err != nil || !fixedCapacity {
		return plan, err
	}
	clamped := *spec
	clamped.Phases = append([]scenario.Phase(nil), spec.Phases...)
	for _, c := range plan.Cells {
		ph := &clamped.Phases[c.PhaseIndex]
		ph.Ops = max(1, min(ph.Ops, c.Capacity-c.Clients*c.Domains))
	}
	e.tr.begin("scenario.compile", kernel)
	plan, err = scenario.Compile(&clamped, kernel)
	e.tr.end()
	return plan, err
}

// buildChurn is the domain-churn set-up: generate the spec, compile it
// for every kernel, and warm up by running the tiny variant's cells.
func buildChurn(e *env) (*instance, error) {
	caps, err := probeCapacity()
	if err != nil {
		return nil, fmt.Errorf("capacity probe: %w", err)
	}
	spec := genChurn(e.seed, e.tiny)
	inst := &instance{}
	for _, k := range vdom.Kernels() {
		plan, err := compileChurn(e, spec, k, caps[k] < maxAccessDomains)
		if err != nil {
			return nil, fmt.Errorf("compile for %s: %w", k, err)
		}
		for _, c := range plan.Cells {
			c := c
			inst.cells = append(inst.cells, cell{
				name: fmt.Sprintf("%s/%s/%d", k, c.Phase, c.Step),
				run:  func(e *env) (cellOut, error) { return churnCell(e, c) },
			})
		}
	}
	if !e.tiny {
		warm, err := buildChurn(&env{seed: e.seed, tiny: true})
		if err != nil {
			return nil, err
		}
		for _, c := range warm.cells {
			if _, err := c.run(&env{}); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
		}
	}
	return inst, nil
}

// churnCell runs one scenario cell recorded, then round-trips it:
// replay.Encode → Decode → ReplayTrace, which must not diverge, and the
// replayed end state through snapshot.Capture → Encode → Decode →
// Restore → Capture, whose sections must be byte-equal to the first
// capture's.
func churnCell(e *env, c scenario.Cell) (cellOut, error) {
	c.Seed = roundSeed(c.Seed, e.round)
	e.tr.begin("scenario.cell", "")
	res, err := scenario.RunCell(c, scenario.CellOptions{Record: true})
	e.tr.end()
	if err != nil {
		return cellOut{}, err
	}
	if res.Faulted != 0 {
		return cellOut{}, fmt.Errorf("%d of %d ops failed (capacity pushback or faults)", res.Faulted, res.Ops)
	}

	e.tr.begin("replay.encode", "")
	enc := replay.Encode(res.Trace)
	e.tr.end()
	if e.inject == injectTraceByte {
		enc[len(enc)/2] ^= 0x40
	}
	e.tr.begin("replay.decode", "")
	tr, err := replay.Decode(enc)
	e.tr.end()
	if err != nil {
		return cellOut{}, fmt.Errorf("replay decode: %w", err)
	}
	var sys *replay.System
	e.tr.begin("replay.verify", "")
	rr, err := scenario.ReplayTrace(tr, replay.Options{Setup: func(s *replay.System) { sys = s }})
	e.tr.end()
	switch {
	case err != nil:
		return cellOut{}, fmt.Errorf("replay: %w", err)
	case rr.Divergence != nil:
		return cellOut{}, fmt.Errorf("replay diverged: %v", rr.Divergence)
	case rr.Events != len(res.Trace.Events):
		return cellOut{}, fmt.Errorf("replay ran %d of %d recorded events", rr.Events, len(res.Trace.Events))
	}

	e.tr.begin("snapshot.capture", "")
	st, err := snapshot.Capture(sys, tr.Header, rr.Cycles, len(tr.Events))
	e.tr.end()
	if err != nil {
		return cellOut{}, fmt.Errorf("snapshot capture: %w", err)
	}
	e.tr.begin("snapshot.encode", "")
	snap := snapshot.Encode(st)
	e.tr.end()
	if e.inject == injectSnapshotByte {
		snap[len(snap)/2] ^= 0x40
	}
	e.tr.begin("snapshot.decode", "")
	st2, err := snapshot.Decode(snap)
	e.tr.end()
	if err != nil {
		return cellOut{}, fmt.Errorf("snapshot decode: %w", err)
	}
	e.tr.begin("snapshot.restore", "")
	sys2, _, err := snapshot.Restore(st2)
	e.tr.end()
	if err != nil {
		return cellOut{}, fmt.Errorf("snapshot restore: %w", err)
	}
	e.tr.begin("snapshot.capture", "")
	st3, err := snapshot.Capture(sys2, st2.Meta.Header, st2.Meta.Clock, st2.Meta.EventIndex)
	e.tr.end()
	if err != nil {
		return cellOut{}, fmt.Errorf("snapshot re-capture: %w", err)
	}
	if err := sameCapture(st, st3); err != nil {
		return cellOut{}, err
	}

	e.tr.sum("replay.encode_bytes", float64(len(enc)))
	e.tr.sum("snapshot.encode_bytes", float64(len(snap)))
	e.tr.count("ops", float64(res.Ops))
	e.tr.count("cells", 1)
	e.tr.count("replay.bytes", float64(len(enc)))
	e.tr.count("snapshot.bytes", float64(len(snap)))
	if e.tr != nil && e.tr.round == 0 && sys.Proc != nil {
		reg := metrics.New()
		reg.Harvest(sys.Machine, sys.Proc.AS())
		e.tr.count("pagetable.pte_writes", float64(reg.Counter("pagetable/pte-writes")))
		for _, f := range []string{"tlb/flush-page", "tlb/flush-range", "tlb/flush-asid", "tlb/flush-full"} {
			e.tr.count("tlb.flushes", float64(reg.Counter(f)))
		}
	}
	return cellOut{ops: res.Ops, digest: digestOf(res.Ops, res.Activations, res.Churns, res.Plain,
		res.Cycles, res.EndDigest, rr.Cycles, len(tr.Events), len(enc))}, nil
}

// sameCapture checks a re-capture against the original: the same
// sections, byte for byte, and the same metadata. The encoded
// containers are not compared: the meta section gob-encodes the header's
// Extra map, whose key order varies from one Encode to the next.
func sameCapture(want, got *snapshot.State) error {
	if !reflect.DeepEqual(want.Meta, got.Meta) {
		return fmt.Errorf("snapshot re-capture: meta %+v, want %+v", got.Meta, want.Meta)
	}
	if len(got.Sections) != len(want.Sections) {
		return fmt.Errorf("snapshot re-capture: %d sections, want %d", len(got.Sections), len(want.Sections))
	}
	for i, w := range want.Sections {
		if g := got.Sections[i]; g.Name != w.Name || !bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("snapshot re-capture: section %d %q differs from %q", i, g.Name, w.Name)
		}
	}
	return nil
}

func churnLayers(t *tracer, m map[string]float64) {
	m["scenario.compile_ms"] = t.spanMS("scenario.compile")
	m["scenario.cell_ms"] = t.spanMS("scenario.cell")
	m["pagetable.pte_writes"] = t.counts["pagetable.pte_writes"]
	m["tlb.flushes"] = t.counts["tlb.flushes"]
	m["replay.encode_mbps"] = t.rate("replay.encode_bytes", "replay.encode")
	m["replay.decode_mbps"] = t.rate("replay.encode_bytes", "replay.decode")
	m["replay.verify_ms"] = t.spanMS("replay.verify")
	if ops := t.counts["ops"]; ops > 0 {
		m["replay.bytes_per_op"] = t.counts["replay.bytes"] / ops
	}
	m["snapshot.capture_ms"] = t.spanMS("snapshot.capture")
	m["snapshot.restore_ms"] = t.spanMS("snapshot.restore")
	m["snapshot.encode_mbps"] = t.rate("snapshot.encode_bytes", "snapshot.encode")
	m["snapshot.decode_mbps"] = t.rate("snapshot.encode_bytes", "snapshot.decode")
	if cells := t.counts["cells"]; cells > 0 {
		m["snapshot.bytes"] = t.counts["snapshot.bytes"] / cells
	}
}
