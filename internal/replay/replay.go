package replay

import (
	"fmt"
	"sort"
	"strings"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/dpti"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
)

// Options configures a replay run.
type Options struct {
	// Metrics, when non-nil, receives the replayed run's full
	// per-(layer, op) cycle attribution, exactly as a live run would.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives Chrome-trace decision spans for the
	// domain-virtualization events of the replayed run.
	Trace *metrics.Trace
	// Setup, when non-nil, runs after the system is booted and before
	// the first event replays. Wrappers use it to attach extra layers
	// the recording had (the chaos package reattaches its injector
	// here).
	Setup func(*System)
}

// System is the freshly booted platform a trace replays against: the
// backend registry's Instance (machine/kernel/process substrate plus the
// kernel kind's domain layer). Fields not used by the trace's kernel
// kind are nil.
type System = backend.Instance

// Divergence describes the first point where a replay stopped matching
// its recording.
type Divergence struct {
	// Index is the position of the mismatching event, or -1 when every
	// event matched but the end state differed.
	Index int
	// Want is the recorded event, Got the replayed one (zero when Index
	// is -1).
	Want, Got Event
	// CycleDelta is the replayed clock minus the recorded clock at the
	// divergence point.
	CycleDelta int64
	// EndDiff lists end-state keys whose values differ, as
	// "key: recorded=X replayed=Y" lines.
	EndDiff []string
}

// String renders the divergence for humans.
func (d *Divergence) String() string {
	if d == nil {
		return "no divergence"
	}
	if d.Index < 0 {
		return fmt.Sprintf("end-state divergence (%d keys): %s",
			len(d.EndDiff), strings.Join(d.EndDiff, "; "))
	}
	return fmt.Sprintf("event %d diverged (cycle delta %+d): recorded {op %s tid %d addr %#x len %d dom %d perm %d flags %#x cost %d err %s} replayed {op %s tid %d addr %#x len %d dom %d perm %d flags %#x cost %d err %s}",
		d.Index, d.CycleDelta,
		d.Want.Op, d.Want.TID, d.Want.Addr, d.Want.Len, d.Want.Dom, d.Want.Perm, d.Want.Flags, d.Want.Cost, d.Want.Err,
		d.Got.Op, d.Got.TID, d.Got.Addr, d.Got.Len, d.Got.Dom, d.Got.Perm, d.Got.Flags, d.Got.Cost, d.Got.Err)
}

// Result is the outcome of one replay.
type Result struct {
	// Header echoes the trace header.
	Header Header
	// Events is the number of events re-executed (the full trace when
	// there was no event divergence).
	Events int
	// Cycles is the replayed run's final cycle clock.
	Cycles uint64
	// End is the replayed system's end state.
	End map[string]uint64
	// Divergence is nil when the replay matched the recording
	// bit-identically.
	Divergence *Divergence
}

// Run boots a system from the trace header, re-executes every event
// against it, and verifies costs, returned ids, permissions, and error
// outcomes event-by-event, then the end state. A structural problem (a
// corrupt trace driving an op at a layer the header's kernel kind does
// not have, or an unknown thread id) returns an error; a well-formed
// trace that behaves differently returns a Result with a Divergence.
func Run(t *Trace, opt Options) (*Result, error) {
	sys, err := Boot(t.Header)
	if err != nil {
		return nil, err
	}
	return replayFrom(t, sys, map[uint64]*kernel.Task{}, 0, 0, opt)
}

// RunTail re-executes t.Events[from:] against an already-running system
// whose clock reads startClock — the tail-recovery path of the crash
// subsystem: after a checkpoint restore, the events recorded since the
// checkpoint are replayed to bring the system back to the crash point.
// tasks maps trace thread ids to the system's live tasks (as returned by
// the snapshot restore). Verification is identical to Run: every tail
// event's cost, ids, and error outcome must match the recording, and the
// trace's end state (when present) must match after the last event.
func RunTail(t *Trace, sys *System, tasks map[uint64]*kernel.Task, startClock uint64, from int, opt Options) (*Result, error) {
	if from < 0 || from > len(t.Events) {
		return nil, fmt.Errorf("%w: tail start %d out of range [0, %d]", ErrBadRecord, from, len(t.Events))
	}
	return replayFrom(t, sys, tasks, startClock, from, opt)
}

// replayFrom is the shared engine of Run and RunTail.
func replayFrom(t *Trace, sys *System, tasks map[uint64]*kernel.Task, startClock uint64, from int, opt Options) (*Result, error) {
	if opt.Setup != nil {
		opt.Setup(sys)
	}
	clock := startClock
	sys.SetMetrics(opt.Metrics)
	if sys.Manager != nil && opt.Trace != nil {
		tr := opt.Trace
		sys.Manager.SetTracer(func(e core.Event) {
			tr.Decision(e.Kind.String(), e.TID, clock, uint64(e.Cost), map[string]uint64{
				"vdom": uint64(e.Vdom), "vds": uint64(e.VDS), "pdom": uint64(e.Pdom),
			})
		})
	}

	res := &Result{Header: t.Header}
	// task resolves an event's thread id; tid 0 is the nil task some
	// libmpk direct-mode calls legitimately use.
	task := func(e Event, idx int) (*kernel.Task, error) {
		if e.TID == 0 {
			return nil, nil
		}
		tk := tasks[e.TID]
		if tk == nil {
			return nil, fmt.Errorf("%w: event %d: unknown tid %d", ErrBadRecord, idx, e.TID)
		}
		return tk, nil
	}
	for i := from; i < len(t.Events); i++ {
		want := t.Events[i]
		got := Event{TID: want.TID, Op: want.Op, Addr: want.Addr, Len: want.Len, Dom: want.Dom, Perm: want.Perm, Flags: want.Flags}
		var rerr error

		switch want.Op {
		case OpSpawn:
			if sys.Proc == nil {
				return nil, layerErr(i, "kernel", t.Header.Kernel)
			}
			tk := sys.Proc.NewTask(int(want.Len))
			tasks[uint64(tk.TID())] = tk
			got.TID = uint64(tk.TID())
		case OpMmap, OpMunmap, OpMprotect, OpAccess:
			if sys.Proc == nil {
				return nil, layerErr(i, "kernel", t.Header.Kernel)
			}
			tk, err := task(want, i)
			if err != nil {
				return nil, err
			}
			if tk == nil {
				return nil, fmt.Errorf("%w: event %d: %s needs a thread", ErrBadRecord, i, want.Op)
			}
			switch want.Op {
			case OpMmap:
				cost, err := tk.Mmap(pagetable.VAddr(want.Addr), want.Len, want.Flags&FlagWrite != 0)
				got.Cost, rerr = uint64(cost), err
			case OpMunmap:
				cost, err := tk.Munmap(pagetable.VAddr(want.Addr), want.Len)
				got.Cost, rerr = uint64(cost), err
			case OpMprotect:
				cost, err := tk.Mprotect(pagetable.VAddr(want.Addr), want.Len, want.Flags&FlagWrite != 0)
				got.Cost, rerr = uint64(cost), err
			case OpAccess:
				cost, err := tk.Access(pagetable.VAddr(want.Addr), want.Flags&FlagWrite != 0)
				got.Cost, rerr = uint64(cost), err
			}
		case OpDispatch:
			if sys.Kernel == nil {
				return nil, layerErr(i, "kernel", t.Header.Kernel)
			}
			tk, err := task(want, i)
			if err != nil || tk == nil {
				return nil, fmt.Errorf("%w: event %d: dispatch needs a thread (%v)", ErrBadRecord, i, err)
			}
			cost := sys.Kernel.TakePendingInterrupts(tk.CoreID())
			cost += sys.Kernel.Dispatch(tk)
			got.Cost = uint64(cost)
		case OpPopulate:
			if sys.Proc == nil {
				return nil, layerErr(i, "kernel", t.Header.Kernel)
			}
			tk, err := task(want, i)
			if err != nil || tk == nil {
				return nil, fmt.Errorf("%w: event %d: populate needs a thread (%v)", ErrBadRecord, i, err)
			}
			table := sys.Proc.AS().Shadow()
			if want.Flags&FlagVDSTable != 0 {
				if sys.Manager == nil {
					return nil, layerErr(i, "core", t.Header.Kernel)
				}
				vdr := sys.Manager.VDROf(tk)
				if vdr == nil {
					return nil, fmt.Errorf("%w: event %d: populate into VDS table but thread %d has no VDR", ErrBadRecord, i, want.TID)
				}
				table = vdr.Current().Table()
			}
			_, rerr = sys.Proc.AS().Populate(table, pagetable.VAddr(want.Addr), want.Len)
		case OpReclaim:
			if sys.Proc == nil {
				return nil, layerErr(i, "kernel", t.Header.Kernel)
			}
			n, cost := sys.Proc.ReclaimFrames(int(want.Addr), int(want.Len))
			got.Dom, got.Cost = uint64(n), uint64(cost)
		case OpReap:
			if sys.Manager == nil {
				return nil, layerErr(i, "core", t.Header.Kernel)
			}
			got.Dom = uint64(sys.Manager.ReapVDSes())
		case OpVdomAlloc:
			if sys.Manager == nil {
				return nil, layerErr(i, "core", t.Header.Kernel)
			}
			d, cost := sys.Manager.AllocVdom(want.Flags&FlagFreq != 0)
			got.Dom, got.Cost = uint64(d), uint64(cost)
		case OpVdomFree:
			if sys.Manager == nil {
				return nil, layerErr(i, "core", t.Header.Kernel)
			}
			cost, err := sys.Manager.FreeVdom(core.VdomID(want.Dom))
			got.Cost, rerr = uint64(cost), err
		case OpVdomMprotect:
			tk, err := replayTask(sys, tasks, want, i, "core")
			if err != nil {
				return nil, err
			}
			cost, err := sys.Manager.Mprotect(tk, pagetable.VAddr(want.Addr), want.Len, core.VdomID(want.Dom))
			got.Cost, rerr = uint64(cost), err
		case OpVdrAlloc:
			tk, err := replayTask(sys, tasks, want, i, "core")
			if err != nil {
				return nil, err
			}
			cost, err := sys.Manager.VdrAlloc(tk, int(want.Len))
			got.Cost, rerr = uint64(cost), err
		case OpVdrFree:
			tk, err := replayTask(sys, tasks, want, i, "core")
			if err != nil {
				return nil, err
			}
			cost, err := sys.Manager.VdrFree(tk)
			got.Cost, rerr = uint64(cost), err
		case OpVdrRead:
			tk, err := replayTask(sys, tasks, want, i, "core")
			if err != nil {
				return nil, err
			}
			perm, cost, err := sys.Manager.RdVdr(tk, core.VdomID(want.Dom))
			got.Perm, got.Cost, rerr = uint8(perm), uint64(cost), err
		case OpVdrWrite:
			tk, err := replayTask(sys, tasks, want, i, "core")
			if err != nil {
				return nil, err
			}
			cost, err := sys.Manager.WrVdr(tk, core.VdomID(want.Dom), core.VPerm(want.Perm))
			got.Cost, rerr = uint64(cost), err
		case OpNewVDS:
			tk, err := replayTask(sys, tasks, want, i, "core")
			if err != nil {
				return nil, err
			}
			cost, err := sys.Manager.PlaceInNewVDS(tk)
			got.Cost, rerr = uint64(cost), err
		case OpPkeyAlloc:
			if sys.Libmpk == nil {
				return nil, layerErr(i, "libmpk", t.Header.Kernel)
			}
			v, cost := sys.Libmpk.PkeyAlloc()
			got.Dom, got.Cost = uint64(v), uint64(cost)
		case OpPkeyFree:
			tk, err := task(want, i)
			if err != nil {
				return nil, err
			}
			if sys.Libmpk == nil {
				return nil, layerErr(i, "libmpk", t.Header.Kernel)
			}
			cost, err := sys.Libmpk.PkeyFree(tk, libmpk.Vkey(want.Dom))
			got.Cost, rerr = uint64(cost), err
		case OpPkeyMprotect:
			tk, err := task(want, i)
			if err != nil {
				return nil, err
			}
			if sys.Libmpk == nil {
				return nil, layerErr(i, "libmpk", t.Header.Kernel)
			}
			cost, err := sys.Libmpk.PkeyMprotect(nil, tk, pagetable.VAddr(want.Addr), want.Len, libmpk.Vkey(want.Dom))
			got.Cost, rerr = uint64(cost), err
		case OpPkeySet:
			tk, err := task(want, i)
			if err != nil {
				return nil, err
			}
			if sys.Libmpk == nil {
				return nil, layerErr(i, "libmpk", t.Header.Kernel)
			}
			cost, err := sys.Libmpk.PkeySet(nil, tk, libmpk.Vkey(want.Dom), hw.Perm(want.Perm))
			got.Cost, rerr = uint64(cost), err
		case OpEpkSwitch:
			if sys.EPK == nil {
				return nil, layerErr(i, "epk", t.Header.Kernel)
			}
			got.Cost = uint64(sys.EPK.Switch(int(want.TID), int(want.Dom)))
		case OpDptiAlloc:
			if sys.DPTI == nil {
				return nil, layerErr(i, "dpti", t.Header.Kernel)
			}
			d, cost := sys.DPTI.AllocDomain()
			got.Dom, got.Cost = uint64(d), uint64(cost)
		case OpDptiFree:
			tk, err := task(want, i)
			if err != nil {
				return nil, err
			}
			if sys.DPTI == nil {
				return nil, layerErr(i, "dpti", t.Header.Kernel)
			}
			cost, err := sys.DPTI.FreeDomain(tk, dpti.DomainID(want.Dom))
			got.Cost, rerr = uint64(cost), err
		case OpDptiProtect:
			tk, err := task(want, i)
			if err != nil {
				return nil, err
			}
			if sys.DPTI == nil {
				return nil, layerErr(i, "dpti", t.Header.Kernel)
			}
			cost, err := sys.DPTI.Protect(tk, pagetable.VAddr(want.Addr), want.Len, dpti.DomainID(want.Dom))
			got.Cost, rerr = uint64(cost), err
		case OpDptiEnter, OpDptiExit:
			if sys.DPTI == nil {
				return nil, layerErr(i, "dpti", t.Header.Kernel)
			}
			tk, err := task(want, i)
			if err != nil || tk == nil {
				return nil, fmt.Errorf("%w: event %d: %s needs a thread (%v)", ErrBadRecord, i, want.Op, err)
			}
			if want.Op == OpDptiEnter {
				cost, err := sys.DPTI.Enter(tk, dpti.DomainID(want.Dom))
				got.Cost, rerr = uint64(cost), err
			} else {
				cost, err := sys.DPTI.Exit(tk)
				got.Cost, rerr = uint64(cost), err
			}
		default:
			return nil, fmt.Errorf("%w: event %d: op %d", ErrBadRecord, i, want.Op)
		}

		got.Err = CodeOf(rerr)
		got.Time = clock
		clock += got.Cost
		res.Events++
		if got != want {
			res.Cycles = clock
			res.End = EndState(clock, sys)
			res.Divergence = &Divergence{
				Index: i, Want: want, Got: got,
				CycleDelta: int64(got.Time+got.Cost) - int64(want.Time+want.Cost),
			}
			return res, nil
		}
	}

	res.Cycles = clock
	res.End = EndState(clock, sys)
	if t.End != nil {
		if diff := diffEnd(t.End, res.End); len(diff) > 0 {
			res.Divergence = &Divergence{Index: -1, EndDiff: diff}
		}
	}
	return res, nil
}

// replayTask resolves a core-layer event's thread, requiring both the
// manager and a live task.
func replayTask(sys *System, tasks map[uint64]*kernel.Task, e Event, idx int, layer string) (*kernel.Task, error) {
	if sys.Manager == nil {
		return nil, layerErr(idx, layer, "")
	}
	if e.TID == 0 {
		return nil, fmt.Errorf("%w: event %d: %s needs a thread", ErrBadRecord, idx, e.Op)
	}
	tk := tasks[e.TID]
	if tk == nil {
		return nil, fmt.Errorf("%w: event %d: unknown tid %d", ErrBadRecord, idx, e.TID)
	}
	return tk, nil
}

func layerErr(idx int, layer, kind string) error {
	if kind == "" {
		return fmt.Errorf("%w: event %d targets the %s layer, absent in this trace's system", ErrBadRecord, idx, layer)
	}
	return fmt.Errorf("%w: event %d targets the %s layer, absent for kernel kind %q", ErrBadRecord, idx, layer, kind)
}

// Boot builds the platform a header describes: machine, kernel, process,
// and the kernel kind's domain layer, unwired (no metrics, taps, or
// chaos attached). Run uses it internally; the snapshot subsystem uses
// it to rebuild a System skeleton before loading checkpointed state into
// each layer. The kernel kind is resolved through the backend registry,
// so a registered backend replays with no changes here.
func Boot(h Header) (*System, error) {
	b, ok := backend.Get(h.Kernel)
	if !ok {
		return nil, fmt.Errorf("%w: unknown kernel kind %q", ErrBadRecord, h.Kernel)
	}
	spec := SpecFromHeader(h)
	sys := &System{}
	// A standalone cost-model trace (EPK with Cores <= 0) needs no
	// machine; application traces record scheduler dispatches too, so
	// they carry the machine geometry and get the substrate.
	if b.Standalone(spec) {
		if err := b.Attach(sys, spec); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		return sys, nil
	}
	arch, err := ArchFromName(h.Arch)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	spec.Arch = arch
	if spec.Cores <= 0 {
		return nil, fmt.Errorf("%w: kernel kind %q needs cores > 0", ErrBadRecord, h.Kernel)
	}
	backend.BootSubstrate(sys, spec)
	if err := b.Attach(sys, spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return sys, nil
}

// SpecFromHeader converts a trace header to the backend boot spec. The
// architecture is left zero — Boot parses it only when a machine is
// actually built, so standalone cost-model traces stay arch-agnostic.
func SpecFromHeader(h Header) backend.Spec {
	return backend.Spec{
		Cores:          h.Cores,
		TLBCap:         h.TLBCap,
		NoASID:         h.Flags&HdrNoASID != 0,
		VDomKernel:     h.Flags&HdrVDomKernel != 0,
		SecureGate:     h.Flags&HdrSecureGate != 0,
		NoPMDOpt:       h.Flags&HdrNoPMDOpt != 0,
		StrictLRU:      h.Flags&HdrStrictLRU != 0,
		FlushThreshold: h.FlushThreshold,
		Nas:            h.Nas,
		Domains:        h.Domains,
		Huge2M:         h.Flags&HdrHugePages != 0,
	}
}

// EndState snapshots the final observable state of a system's attached
// layers: the cycle clock, the kernel's counters, and — through each
// registered backend's EmitEnd hook — the present domain layer's
// counters and digests. Nil layers contribute nothing, so recordings and
// replays of the same kernel kind produce comparable maps.
func EndState(clock uint64, sys *System) map[string]uint64 {
	end := map[string]uint64{"clock": clock}
	if sys == nil {
		return end
	}
	emit := func(name string, v uint64) { end[name] = v }
	if sys.Kernel != nil {
		sys.Kernel.EmitMetrics(emit)
	}
	if b := backend.Of(sys); b != nil {
		b.EmitEnd(sys, emit)
	}
	return end
}

// diffEnd lists keys whose values differ between the recorded and
// replayed end states, in sorted key order.
func diffEnd(want, got map[string]uint64) []string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var out []string
	for _, k := range sortedU64Keys(want) {
		keys[k] = false
		if got[k] != want[k] {
			out = append(out, fmt.Sprintf("%s: recorded=%d replayed=%d", k, want[k], got[k]))
		}
	}
	extra := make([]string, 0)
	for k, pending := range keys {
		if pending {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		out = append(out, fmt.Sprintf("%s: recorded=%d replayed=%d", k, want[k], got[k]))
	}
	return out
}
