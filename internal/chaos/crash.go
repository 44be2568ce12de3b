package chaos

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sort"

	"vdom/internal/kernel"
	"vdom/internal/replay"
	"vdom/internal/sim"
	"vdom/internal/snapshot"
)

// Crash-fault model on top of the steppable soak: the harness
// checkpoints the full System periodically (internal/snapshot), strikes
// a crash fault at a chosen op boundary, detects it — via the sim
// watchdog for wedging faults, via the cross-layer auditor for silent
// corruption — and recovers by restoring the latest checkpoint and
// replaying the recorded trace tail up to the crash point, after which
// the workload continues as if nothing happened. A recovered run's
// trace, end state, and counters are bit-identical to an uninterrupted
// run of the same seed (see RECOVERY.md).

// CrashKind selects the injected crash fault.
type CrashKind int

const (
	// CrashCore wipes one core's volatile state (TLB, permission
	// register, loaded table, walk cache), wedging the machine.
	CrashCore CrashKind = iota
	// CrashKernelPanic models a kernel panic mid-syscall: every core's
	// residency bookkeeping is lost.
	CrashKernelPanic
	// CrashTornDomainMap models a crash in the middle of a multi-step
	// domain-map update: the forward entry survives, its inverse is
	// lost. The system keeps running on corrupt metadata until the
	// auditor catches it.
	CrashTornDomainMap
)

// String names the crash kind for reports.
func (k CrashKind) String() string {
	switch k {
	case CrashCore:
		return "core-crash"
	case CrashKernelPanic:
		return "kernel-panic"
	case CrashTornDomainMap:
		return "torn-domain-map"
	default:
		return fmt.Sprintf("crash-kind-%d", int(k))
	}
}

// InjectorSection is the snapshot section carrying the injector's image;
// recovery rebuilds the fault stream from it so the trace tail replays
// under the identical faults.
const InjectorSection = "chaos/injector"

// CounterSnap is one (kind → count) entry of an injector counter map.
type CounterSnap struct {
	Kind string
	N    uint64
}

// InjectorSnap is the serializable image of an Injector.
type InjectorSnap struct {
	Cfg       Config
	Rng       [4]uint64
	Seq       uint64
	Injected  []CounterSnap // ascending kind
	Recovered []CounterSnap // ascending kind
	Events    []Event
}

// Snap captures the injector's image, PRNG state included.
func (in *Injector) Snap() InjectorSnap {
	s := InjectorSnap{
		Cfg:    in.cfg,
		Rng:    in.rng.State(),
		Seq:    in.seq,
		Events: append([]Event(nil), in.events...),
	}
	s.Injected = counterSnaps(in.injected)
	s.Recovered = counterSnaps(in.recovered)
	return s
}

// NewFromSnap rebuilds an injector from its image: same config, same
// PRNG position, same counters and event log.
func NewFromSnap(s InjectorSnap) *Injector {
	in := New(s.Cfg)
	in.rng.SetState(s.Rng)
	in.seq = s.Seq
	for _, c := range s.Injected {
		in.injected[c.Kind] = c.N
	}
	for _, c := range s.Recovered {
		in.recovered[c.Kind] = c.N
	}
	in.events = append([]Event(nil), s.Events...)
	return in
}

func counterSnaps(m map[string]uint64) []CounterSnap {
	out := make([]CounterSnap, 0, len(m))
	for k, v := range m {
		out = append(out, CounterSnap{Kind: k, N: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

func gobBytes(v any) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		panic(fmt.Sprintf("chaos: gob encode: %v", err))
	}
	return b.Bytes()
}

// Checkpoint captures the full System — every layer plus the injector —
// as an encoded vdom-snap/v1 snapshot. It requires SoakConfig.Record:
// recovery replays the recorded tail from the checkpoint's event index.
func (s *SoakRun) Checkpoint() ([]byte, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("chaos: Checkpoint requires SoakConfig.Record")
	}
	h := soakHeader(s.cfg)
	h.Version = replay.FormatVersion
	st, err := snapshot.Capture(s.sys, h, s.rec.Clock(), s.rec.Len())
	if err != nil {
		return nil, err
	}
	st.AddSection(InjectorSection, gobBytes(s.in.Snap()))
	return snapshot.Encode(st), nil
}

// Crash strikes the crash fault against the live system and returns a
// description of the damage. The system is left wedged (CrashCore,
// CrashKernelPanic) or silently corrupt (CrashTornDomainMap); only
// Recover brings it back.
func (s *SoakRun) Crash(kind CrashKind) string {
	switch kind {
	case CrashCore:
		id := s.nextOp % s.cfg.Cores
		s.sys.Machine.Core(id).CrashVolatile()
		return fmt.Sprintf("core %d volatile state wiped", id)
	case CrashKernelPanic:
		s.sys.Kernel.ClearResidency()
		return "kernel panic: per-core residency lost"
	case CrashTornDomainMap:
		if s.sys.Manager != nil {
			if detail, ok := s.sys.Manager.TearDomainMap(); ok {
				return "torn domain map: " + detail
			}
		}
		// No mapped vdom to tear; fall back to a residency wipe so the
		// fault still strikes deterministically.
		s.sys.Kernel.ClearResidency()
		return "no mapped vdom to tear; kernel residency wiped instead"
	default:
		panic(fmt.Sprintf("chaos: unknown crash kind %d", int(kind)))
	}
}

// AuditNow runs the cross-layer auditor against the live (possibly
// crashed) system without folding the findings into the soak result —
// crash detection findings describe state that recovery discards.
func (s *SoakRun) AuditNow() []Violation {
	return AuditSystem(s.sys)
}

// Recovery describes one completed checkpoint-restore-tail-replay pass.
type Recovery struct {
	// TailEvents is the number of trace events replayed to roll the
	// restored checkpoint forward to the crash point.
	TailEvents int
	// Violations is the auditor's findings on the recovered system; a
	// sound recovery has none.
	Violations []Violation
}

// recoverFromCheckpoint is the shared recovery engine: decode the
// checkpoint, restore every layer, rebuild the injector from its
// section, replay the trace tail from the checkpoint's event index
// (under the restored fault stream, with no metrics attribution — a
// live run's registry already saw these ops), and audit the result.
func recoverFromCheckpoint(snap []byte, tail *replay.Trace) (*replay.System, map[uint64]*kernel.Task, *Injector, *Recovery, error) {
	st, err := snapshot.Decode(snap)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if st.Meta.Header.ConfigDigest != tail.Header.ConfigDigest {
		return nil, nil, nil, nil, fmt.Errorf("%w: checkpoint config digest %#x does not match trace %#x",
			snapshot.ErrBadRecord, st.Meta.Header.ConfigDigest, tail.Header.ConfigDigest)
	}
	data, ok := st.Section(InjectorSection)
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("%w: missing section %q", snapshot.ErrBadRecord, InjectorSection)
	}
	var isnap InjectorSnap
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&isnap); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%w: section %q: %v", snapshot.ErrBadRecord, InjectorSection, err)
	}

	sys, tasks, err := snapshot.Restore(st)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	in := NewFromSnap(isnap)

	res, err := replay.RunTail(tail, sys, tasks, st.Meta.Clock, st.Meta.EventIndex, replay.Options{
		Setup: in.AttachSystem,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if res.Divergence != nil {
		return nil, nil, nil, nil, fmt.Errorf("chaos: tail replay diverged at event %d (cycle delta %d)",
			res.Divergence.Index, res.Divergence.CycleDelta)
	}
	rec := &Recovery{TailEvents: res.Events, Violations: AuditSystem(sys)}
	return sys, tasks, in, rec, nil
}

// RecoverFromArtifacts re-runs a crash recovery from its persisted
// reproducer artifacts — an encoded checkpoint plus the crashed run's
// recorded trace — standalone, with no live soak. It returns the tail
// replay and audit outcome; the recovered System is discarded.
func RecoverFromArtifacts(snap []byte, tail *replay.Trace) (*Recovery, error) {
	_, _, _, rec, err := recoverFromCheckpoint(snap, tail)
	return rec, err
}

// Recover rebuilds the soak's live system from an encoded checkpoint:
// restore, tail replay up to the crash point, audit, and swap the
// recovered instances in. The workload then continues from the op the
// crash interrupted. The recorder's taps stay on the wrecked instances
// while the tail replays, so replayed ops are not re-recorded.
func (s *SoakRun) Recover(snap []byte) (*Recovery, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("chaos: Recover requires SoakConfig.Record")
	}
	sys, tasks, in, rec, err := recoverFromCheckpoint(snap, s.rec.Partial(s.rec.Len()))
	if err != nil {
		return nil, err
	}

	// Swap the recovered system in and re-wire the host-side taps.
	for i, t := range s.tasks {
		nt, ok := tasks[uint64(t.TID())]
		if !ok {
			return nil, fmt.Errorf("chaos: task %d lost across recovery", t.TID())
		}
		s.tasks[i] = nt
	}
	s.in = in
	s.attach(sys)
	s.tracedEvents = len(s.in.Events())
	return rec, nil
}

// CrashConfig parameterizes one crash-and-recover soak. Zero fields take
// defaults.
type CrashConfig struct {
	// Kind is the crash fault to strike.
	Kind CrashKind
	// Ctx, when non-nil, cancels the soak between ops: CrashSoak returns
	// the context's error so a wall-clock -timeout can never hang a CI
	// job on a wedged run.
	Ctx context.Context
	// AtOp is the op boundary the crash strikes at — before the op runs
	// (default: halfway through the run).
	AtOp int
	// CheckpointEvery is the checkpoint cadence in ops (default 300; a
	// checkpoint is always taken right after setup).
	CheckpointEvery int
	// WatchdogThreshold is how many stalled observations arm the
	// watchdog (default 8).
	WatchdogThreshold int
}

// CrashOutcome is the report of one crash-and-recover soak.
type CrashOutcome struct {
	// Kind names the crash fault.
	Kind string
	// CheckpointOp is the op the recovery checkpoint was taken after.
	CheckpointOp int
	// CrashOp is the op boundary the crash struck at.
	CrashOp int
	// Detail describes the damage.
	Detail string
	// WatchdogFired reports the watchdog detecting the wedge (wedging
	// kinds only; torn-map crashes are caught by the auditor instead).
	WatchdogFired bool
	// DetectedBy is "watchdog" or "audit".
	DetectedBy string
	// TailEvents is the number of trace events replayed during recovery.
	TailEvents int
	// PostViolations is the auditor's findings on the recovered system.
	PostViolations []Violation
	// Snapshot is the encoded checkpoint recovery restored from — the
	// standalone reproducer artifact.
	Snapshot []byte
	// Result is the completed soak result (crash and recovery included).
	Result *SoakResult
}

// CrashSoak runs a soak with a crash fault struck at the configured op:
// periodic checkpoints, the crash, detection (watchdog or auditor),
// restore + tail replay, and the remainder of the workload on the
// recovered system. The returned result's trace and end state are
// bit-identical to an uninterrupted Soak of the same SoakConfig (with
// Record set).
func CrashSoak(cfg SoakConfig, crash CrashConfig) (*CrashOutcome, error) {
	cfg.Record = true
	if cfg.Ops <= 0 {
		cfg.Ops = 5000
	}
	if crash.AtOp <= 0 {
		crash.AtOp = cfg.Ops/2 + 1
	}
	if crash.AtOp > cfg.Ops {
		crash.AtOp = cfg.Ops
	}
	if crash.CheckpointEvery <= 0 {
		crash.CheckpointEvery = 300
	}
	if crash.WatchdogThreshold <= 0 {
		crash.WatchdogThreshold = 8
	}

	s := StartSoak(cfg)
	out := &CrashOutcome{Kind: crash.Kind.String(), CrashOp: crash.AtOp}
	latest, err := s.Checkpoint()
	if err != nil {
		return nil, err
	}
	for op := 1; op <= cfg.Ops; op++ {
		if crash.Ctx != nil && crash.Ctx.Err() != nil {
			return nil, fmt.Errorf("chaos: crash soak cancelled at op %d: %w", op, crash.Ctx.Err())
		}
		if op == crash.AtOp {
			out.Detail = s.Crash(crash.Kind)
			if crash.Kind == CrashTornDomainMap {
				out.DetectedBy = "audit"
				if v := s.AuditNow(); len(v) == 0 {
					return nil, fmt.Errorf("chaos: torn domain map escaped the auditor")
				}
			} else {
				// The wedged system makes no progress: feed the watchdog
				// the frozen clock until it fires.
				out.DetectedBy = "watchdog"
				wd := sim.NewWatchdog(crash.WatchdogThreshold, func(uint64) { out.WatchdogFired = true })
				frozen := s.ClockCycles()
				for !wd.Fired() {
					wd.Observe(frozen)
				}
			}
			rec, err := s.Recover(latest)
			if err != nil {
				out.Snapshot = latest
				return out, err
			}
			out.TailEvents = rec.TailEvents
			out.PostViolations = rec.Violations
			if len(rec.Violations) > 0 {
				out.Snapshot = latest
				return out, fmt.Errorf("chaos: recovered system failed audit with %d violation(s)", len(rec.Violations))
			}
		}
		s.Step()
		if op%crash.CheckpointEvery == 0 && op < crash.AtOp {
			if latest, err = s.Checkpoint(); err != nil {
				return nil, err
			}
			out.CheckpointOp = op
		}
	}
	out.Snapshot = latest
	out.Result = s.Finish()
	return out, nil
}
