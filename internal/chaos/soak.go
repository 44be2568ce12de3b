package chaos

import (
	"errors"
	"fmt"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/dpti"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
)

// SoakConfig parameterizes a chaos soak run. Zero fields take defaults.
type SoakConfig struct {
	// Chaos selects the fault mix and the seed.
	Chaos Config
	// Ops is the number of API/access operations to drive (default 5000).
	Ops int
	// Cores is the machine size (default 4).
	Cores int
	// Threads is the thread count, round-robin pinned (default 4).
	Threads int
	// Vdoms is the number of protected regions cycling through the
	// working set (default 24).
	Vdoms int
	// AuditEvery runs the cross-layer auditor every N ops (default 64;
	// a final audit always runs).
	AuditEvery int
	// Arch selects the cost table (default X86).
	Arch cycles.Arch
	// Kernel names the backend to soak: "" or "vdom" drives the VDom
	// manager, "dpti" the per-domain-page-table baseline.
	Kernel string

	// Metrics, when non-nil, is attached to the kernel and the domain
	// layer; the run's per-(layer, op) cycle attribution then sums to
	// exactly SoakResult.Cycles, and the injector's and layers' event
	// counters are harvested when the soak finishes.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives one Chrome-trace instant per injected
	// fault and recovery and, for VDom, one decision span per
	// domain-virtualization event, timestamped on the run's cumulative
	// cycle clock.
	Trace *metrics.Trace
	// Record captures the soak's domain-op stream as a replayable trace
	// (SoakResult.Trace); failing runs can then be shrunk to a minimal
	// reproducer with SoakResult.FailTrace. Crash-fault recovery
	// (SoakRun.Checkpoint/Recover) requires it: the trace tail is what
	// replays the system forward from a checkpoint.
	Record bool
}

// SoakResult is the outcome of one soak run.
type SoakResult struct {
	// Ops is the number of operations driven.
	Ops int
	// Cycles is the total cycle cost charged across the run.
	Cycles cycles.Cost
	// Injected and Recovered are the injector's per-kind counters.
	Injected, Recovered map[string]uint64
	// Events is the deterministic fault/recovery log.
	Events []Event
	// Violations collects every auditor finding across all audit passes.
	Violations []Violation
	// Unrecovered lists operations that failed in a way no degradation
	// path absorbed. A healthy run has none.
	Unrecovered []string
	// Audits is the number of auditor passes.
	Audits int
	// ASIDRollovers is the kernel's generation-rollover count.
	ASIDRollovers uint64
	// CoreStats snapshots the VDom manager's operation counters (zero
	// for other kernels).
	CoreStats core.Stats
	// Trace is the full replayable recording (nil unless
	// SoakConfig.Record was set).
	Trace *replay.Trace
	// FirstFailEvent is the trace position just past the first
	// unrecovered failure, or -1 when the run was healthy. FailTrace
	// truncates the recording there.
	FirstFailEvent int
	// TracePath is where a harness persisted the (fail) trace, when it
	// did; informational only.
	TracePath string
}

// FailTrace returns the minimal replayable reproducer for an unhealthy
// run: the recording truncated just past the first unrecovered failure,
// or the full recording when only audit violations were found. It
// returns nil for healthy or unrecorded runs.
func (r *SoakResult) FailTrace() *replay.Trace {
	if r.Trace == nil || (len(r.Unrecovered) == 0 && len(r.Violations) == 0) {
		return nil
	}
	if r.FirstFailEvent < 0 || r.FirstFailEvent >= len(r.Trace.Events) {
		return r.Trace
	}
	return &replay.Trace{
		Header: r.Trace.Header,
		Events: r.Trace.Events[:r.FirstFailEvent:r.FirstFailEvent],
	}
}

// Merge folds another shard's result into r: counters and cycle totals
// are summed, per-kind maps are added key-wise, and the event, violation,
// and unrecovered listings are appended in call order. Merging shards of
// a sharded soak in shard-index order therefore yields the same aggregate
// regardless of which worker ran which shard.
func (r *SoakResult) Merge(o *SoakResult) {
	if o == nil {
		return
	}
	r.Ops += o.Ops
	r.Cycles += o.Cycles
	r.Audits += o.Audits
	r.ASIDRollovers += o.ASIDRollovers
	if r.Injected == nil {
		r.Injected = map[string]uint64{}
	}
	for k, v := range o.Injected {
		r.Injected[k] += v
	}
	if r.Recovered == nil {
		r.Recovered = map[string]uint64{}
	}
	for k, v := range o.Recovered {
		r.Recovered[k] += v
	}
	r.Events = append(r.Events, o.Events...)
	r.Violations = append(r.Violations, o.Violations...)
	r.Unrecovered = append(r.Unrecovered, o.Unrecovered...)
	r.CoreStats = r.CoreStats.Add(o.CoreStats)
	// Traces do not merge; keep the first shard's recording (shards that
	// need theirs kept dump them before merging).
	if r.Trace == nil {
		r.Trace, r.FirstFailEvent, r.TracePath = o.Trace, o.FirstFailEvent, o.TracePath
	}
}

// regionPages is the size of each protected region in the soak workload.
const regionPages = 4

// SoakRun is a soak in progress, steppable one operation at a time so a
// crash-fault harness can interleave checkpoints, crashes, and recovery
// with the workload. StartSoak boots it; Step drives one op; Finish
// seals the result. Soak composes the three for the plain
// run-to-completion case.
type SoakRun struct {
	cfg  SoakConfig
	kern soakKernel

	in  *Injector
	sys *replay.System
	rec *replay.Recorder

	res   *SoakResult
	total cycles.Cost
	tasks []*kernel.Task
	// doms holds each region's current domain id, in the kernel's own
	// id space.
	doms   []uint64
	r      *sim.Rand
	nextOp int

	tracedEvents int
	finished     bool
}

// soakKernel is what one kernel contributes to the soak: its header
// fields, its setup binding, its op mix, and its end stats. Booting,
// recording, fault injection, audits, and tracing are shared.
type soakKernel interface {
	// header returns the kernel kind, policy flags, and config digest of
	// the run's trace header.
	header(cfg SoakConfig) replay.Header
	// bind allocates region i's initial domain and protects the region
	// with it.
	bind(s *SoakRun, i int) uint64
	// prepare runs per-thread setup once every region is bound.
	prepare(s *SoakRun)
	// step runs one op of the kernel's mix by thread t on region di; x
	// is the op's draw from [0, 100).
	step(s *SoakRun, op int, t *kernel.Task, di, x int)
	// finish harvests the kernel's end stats.
	finish(s *SoakRun)
}

// soakKernels maps backend names to their soak drivers.
var soakKernels = map[string]soakKernel{
	replay.KernelVDom: vdomSoak{},
	replay.KernelDPTI: dptiSoak{},
}

// Soak boots a machine with the injector attached and drives a randomized
// (but seed-deterministic) workload through it: domain grants, accesses,
// revocations, free/realloc cycles, and frame reclaim, plus each kernel's
// own operations — auditing cross-layer consistency as it goes. The same
// SoakConfig reproduces the identical event sequence.
func Soak(cfg SoakConfig) *SoakResult {
	s := StartSoak(cfg)
	for s.Step() {
	}
	return s.Finish()
}

// StartSoak boots the soak platform from its trace header and runs the
// workload setup (task spawns, region mmaps, initial domain bindings),
// leaving the run poised before op 1. It panics on a kernel with no soak
// driver.
func StartSoak(cfg SoakConfig) *SoakRun {
	if cfg.Ops <= 0 {
		cfg.Ops = 5000
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Vdoms <= 0 {
		cfg.Vdoms = 24
	}
	if cfg.AuditEvery <= 0 {
		cfg.AuditEvery = 64
	}
	if cfg.Kernel == "" {
		cfg.Kernel = replay.KernelVDom
	}
	kern, ok := soakKernels[cfg.Kernel]
	if !ok {
		panic(fmt.Sprintf("chaos: no soak driver for kernel %q", cfg.Kernel))
	}

	s := &SoakRun{cfg: cfg, kern: kern, nextOp: 1}
	h := soakHeader(cfg)
	sys, err := replay.Boot(h)
	if err != nil {
		panic(fmt.Sprintf("chaos: soak boot: %v", err))
	}
	s.in = New(cfg.Chaos)
	s.in.AttachSystem(sys)
	if cfg.Record {
		s.rec = replay.NewRecorder(h)
	}
	s.res = &SoakResult{Ops: cfg.Ops, FirstFailEvent: -1}
	s.attach(sys)

	s.tasks = make([]*kernel.Task, cfg.Threads)
	for i := range s.tasks {
		s.tasks[i] = sys.Proc.NewTask(i % cfg.Cores)
		if s.rec != nil {
			s.rec.Spawn(s.tasks[i])
		}
	}

	if c, err := s.tasks[0].Mmap(plainBase, plainPages*pagetable.PageSize, true); err != nil {
		s.fail(0, "setup mmap", err)
	} else {
		s.total += c
	}
	s.doms = make([]uint64, cfg.Vdoms)
	for i := range s.doms {
		if c, err := s.tasks[0].Mmap(region(i), regionPages*pagetable.PageSize, true); err != nil {
			s.fail(0, "setup mmap", err)
		} else {
			s.total += c
		}
		s.doms[i] = kern.bind(s, i)
	}
	kern.prepare(s)

	// The op stream draws from its own PRNG so the fault stream (the
	// injector's) and the workload stream stay independent but both
	// replay from the seed.
	s.r = sim.NewRand(cfg.Chaos.Seed ^ 0x6a09e667f3bcc908)
	return s
}

// attach makes sys the run's live system and wires the host-side sinks
// onto it: the recorder, the metrics registry, and (for VDom) the
// Chrome-trace decision tap. Recovery calls it again on the restored
// system.
func (s *SoakRun) attach(sys *replay.System) {
	s.sys = sys
	if s.rec != nil {
		s.rec.AttachSystem(sys)
	}
	sys.SetMetrics(s.cfg.Metrics)
	if s.cfg.Trace != nil && sys.Manager != nil {
		sys.Manager.SetTracer(func(e core.Event) {
			s.cfg.Trace.Decision(e.Kind.String(), e.TID, uint64(s.total), uint64(e.Cost), map[string]uint64{
				"vdom": uint64(e.Vdom), "vds": uint64(e.VDS), "pdom": uint64(e.Pdom),
			})
		})
	}
}

// Working set: an unprotected scratch region plus one region per domain.
const (
	plainBase  = pagetable.VAddr(0x1000_0000)
	plainPages = 64
)

func region(i int) pagetable.VAddr {
	return pagetable.VAddr(0x4000_0000 + uint64(i)*0x10_0000)
}

// pageOf draws a random page of region di.
func (s *SoakRun) pageOf(di int) pagetable.VAddr {
	return region(di) + pagetable.VAddr(uint64(s.r.Intn(regionPages))*pagetable.PageSize)
}

// NextOp returns the 1-based index of the op the next Step will run.
func (s *SoakRun) NextOp() int { return s.nextOp }

// ClockCycles returns the run's cumulative cycle clock.
func (s *SoakRun) ClockCycles() uint64 { return uint64(s.total) }

func (s *SoakRun) fail(op int, what string, err error) {
	if s.rec != nil && s.res.FirstFailEvent < 0 {
		// The failing op's events are already recorded (taps fire at
		// completion), so the prefix up to here is the reproducer.
		s.res.FirstFailEvent = s.rec.Len()
	}
	s.res.Unrecovered = append(s.res.Unrecovered, fmt.Sprintf("op %d: %s: %v", op, what, err))
}

func (s *SoakRun) audit() {
	s.res.Audits++
	s.res.Violations = append(s.res.Violations, AuditSystem(s.sys)...)
}

// traceEvents turns each injected fault and recovery into a trace
// instant at the cycle position of the op that triggered it.
func (s *SoakRun) traceEvents() {
	if s.cfg.Trace == nil {
		return
	}
	evs := s.in.Events()
	for ; s.tracedEvents < len(evs); s.tracedEvents++ {
		s.cfg.Trace.Instant("chaos", evs[s.tracedEvents].Kind, 0, uint64(s.total))
	}
}

// Step drives one workload op (and the periodic audit that falls on it)
// and reports whether ops remain.
func (s *SoakRun) Step() bool {
	if s.nextOp > s.cfg.Ops {
		return false
	}
	op := s.nextOp
	s.nextOp++

	t := s.tasks[s.r.Intn(len(s.tasks))]
	di := s.r.Intn(len(s.doms))
	s.kern.step(s, op, t, di, s.r.Intn(100))
	s.traceEvents()
	if op%s.cfg.AuditEvery == 0 {
		s.audit()
	}
	return s.nextOp <= s.cfg.Ops
}

// plainAccess touches a random page of the unprotected scratch region.
func (s *SoakRun) plainAccess(op int, t *kernel.Task) {
	addr := plainBase + pagetable.VAddr(uint64(s.r.Intn(plainPages))*pagetable.PageSize)
	c, err := t.Access(addr, s.r.Intn(2) == 0)
	s.total += c
	if err != nil {
		s.fail(op, fmt.Sprintf("plain access at %#x", uint64(addr)), err)
	}
}

// reclaim applies kswapd pressure from t's core and records it.
func (s *SoakRun) reclaim(t *kernel.Task) {
	max := 1 + s.r.Intn(8)
	n, c := s.sys.Proc.ReclaimFrames(t.CoreID(), max)
	s.total += c
	if s.rec != nil {
		s.rec.Reclaim(t.CoreID(), max, n, c)
	}
}

// Finish runs the final audit, harvests every counter, and seals the
// result. It is idempotent.
func (s *SoakRun) Finish() *SoakResult {
	if s.finished {
		return s.res
	}
	s.finished = true
	s.audit()

	s.res.Cycles = s.total
	s.res.Injected = s.in.Injected()
	s.res.Recovered = s.in.Recovered()
	s.res.Events = s.in.Events()
	s.res.ASIDRollovers = s.sys.Kernel.ASIDRollovers()
	if s.rec != nil {
		s.res.Trace = s.rec.Finish()
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Accumulate(s.in, s.sys.Machine, s.sys.Proc.AS(), s.sys.Kernel)
	}
	s.kern.finish(s)
	return s.res
}

// vdomSoak drives the VDom manager: grants, accesses, revocations, vdom
// free/realloc cycles, VDS spreading, VDR churn, and frame reclaim.
type vdomSoak struct{}

func (vdomSoak) header(cfg SoakConfig) replay.Header {
	pol := core.DefaultPolicy()
	h := replay.Header{
		Kernel:         replay.KernelVDom,
		Flags:          replay.HdrVDomKernel,
		FlushThreshold: pol.RangeFlushThresholdPages,
		Nas:            pol.DefaultNas,
		ConfigDigest: replay.DigestString(fmt.Sprintf(
			"chaos-soak|arch=%s|cores=%d|threads=%d|vdoms=%d|ops=%d|chaos=%+v",
			replay.ArchName(cfg.Arch), cfg.Cores, cfg.Threads, cfg.Vdoms, cfg.Ops, cfg.Chaos)),
	}
	if pol.SecureGate {
		h.Flags |= replay.HdrSecureGate
	}
	return h
}

func (vdomSoak) bind(s *SoakRun, i int) uint64 {
	m := s.sys.Manager
	d, c := m.AllocVdom(i%4 == 0)
	s.total += c
	if c, err := m.Mprotect(s.tasks[0], region(i), regionPages*pagetable.PageSize, d); err != nil {
		s.fail(0, "setup mprotect", err)
	} else {
		s.total += c
	}
	return uint64(d)
}

func (vdomSoak) prepare(s *SoakRun) {
	for _, t := range s.tasks {
		c, err := s.sys.Manager.VdrAlloc(t, 0)
		s.total += c
		if err != nil {
			s.fail(0, "setup vdr_alloc", err)
		}
	}
}

func (vdomSoak) step(s *SoakRun, op int, t *kernel.Task, di, x int) {
	m := s.sys.Manager
	d := core.VdomID(s.doms[di])
	switch {
	case x < 50: // grant, then touch a page of the region
		perm := core.VPermReadWrite
		if x < 10 {
			perm = core.VPermRead
		}
		c, err := m.WrVdr(t, d, perm)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("wrvdr grant vdom %d", d), err)
			break
		}
		addr := s.pageOf(di)
		write := perm == core.VPermReadWrite && s.r.Intn(2) == 0
		c, err = t.Access(addr, write)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("access vdom %d at %#x", d, uint64(addr)), err)
		}
	case x < 65: // revoke (sometimes pinning)
		perm := core.VPermNone
		if x < 55 {
			perm = core.VPermPinned
		}
		c, err := m.WrVdr(t, d, perm)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("wrvdr revoke vdom %d", d), err)
		}
	case x < 75: // free the vdom, rebind its region to a fresh one
		c, err := m.FreeVdom(d)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("free vdom %d", d), err)
			break
		}
		nd, c := m.AllocVdom(s.r.Intn(4) == 0)
		s.total += c
		c, err = m.Mprotect(t, region(di), regionPages*pagetable.PageSize, nd)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("mprotect vdom %d", nd), err)
			break
		}
		s.doms[di] = uint64(nd)
	case x < 83: // spread the thread into a fresh VDS
		c, err := m.PlaceInNewVDS(t)
		s.total += c
		// A typed resource failure here is tolerated: the caller's
		// recovery is simply staying in its current VDS.
		if err != nil && !errors.Is(err, core.ErrNoResources) && !errors.Is(err, core.ErrExhausted) {
			s.fail(op, "place_in_new_vds", err)
		}
	case x < 90: // VDR churn (exercises the base-ASID restore)
		c, err := m.VdrFree(t)
		s.total += c
		if err != nil {
			s.fail(op, "vdr_free", err)
			break
		}
		c, err = m.VdrAlloc(t, 0)
		s.total += c
		if err != nil {
			s.fail(op, "vdr_alloc", err)
		}
	case x < 96: // kswapd pressure, plus VDS garbage collection
		s.reclaim(t)
		reaped := m.ReapVDSes()
		if s.rec != nil {
			s.rec.Reap(reaped)
		}
	default: // unprotected access
		s.plainAccess(op, t)
	}
}

func (vdomSoak) finish(s *SoakRun) { s.res.CoreStats = s.sys.Manager.Stats }

// dptiSoak drives the per-domain-page-table baseline. The injector
// reaches only the machine and the kernel — DPTI has no manager-level
// fault hooks — so the fault mix is the hardware/kernel subset (IPI drops
// and delays, stale TLB entries, ASID exhaustion, spurious faults). ASID
// exhaustion is DPTI's characteristic failure: materializing a domain
// table needs a free ASID, and when the injector withholds them the
// degradation path is simply staying in the base address space.
type dptiSoak struct{}

func (dptiSoak) header(cfg SoakConfig) replay.Header {
	return replay.Header{
		Kernel: replay.KernelDPTI,
		ConfigDigest: replay.DigestString(fmt.Sprintf(
			"dpti-chaos-soak|arch=%s|cores=%d|threads=%d|doms=%d|ops=%d|chaos=%+v",
			replay.ArchName(cfg.Arch), cfg.Cores, cfg.Threads, cfg.Vdoms, cfg.Ops, cfg.Chaos)),
	}
}

func (dptiSoak) bind(s *SoakRun, i int) uint64 {
	m := s.sys.DPTI
	d, c := m.AllocDomain()
	s.total += c
	if c, err := m.Protect(s.tasks[0], region(i), regionPages*pagetable.PageSize, d); err != nil {
		s.fail(0, "setup protect", err)
	} else {
		s.total += c
	}
	return uint64(d)
}

func (dptiSoak) prepare(*SoakRun) {}

// enter switches t into d, tolerating ASID exhaustion: when the injector
// has drained the ASID pool the task simply stays in the base address
// space. Reports whether the task is inside d afterwards.
func (dptiSoak) enter(s *SoakRun, op int, t *kernel.Task, d dpti.DomainID) bool {
	c, err := s.sys.DPTI.Enter(t, d)
	s.total += c
	if err == nil {
		return true
	}
	if !errors.Is(err, dpti.ErrNoASID) {
		s.fail(op, fmt.Sprintf("enter domain %d", d), err)
	}
	return false
}

func (k dptiSoak) step(s *SoakRun, op int, t *kernel.Task, di, x int) {
	m := s.sys.DPTI
	d := dpti.DomainID(s.doms[di])
	switch {
	case x < 45: // enter, then touch a page of the region
		if !k.enter(s, op, t, d) {
			break
		}
		addr := s.pageOf(di)
		c, err := t.Access(addr, s.r.Intn(2) == 0)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("access domain %d at %#x", d, uint64(addr)), err)
		}
	case x < 58: // exit back to the base address space
		c, err := m.Exit(t)
		s.total += c
		if err != nil {
			s.fail(op, "exit", err)
		}
	case x < 70: // free the domain, rebind its region to a fresh one
		c, err := m.FreeDomain(t, d)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("free domain %d", d), err)
			break
		}
		nd, c := m.AllocDomain()
		s.total += c
		c, err = m.Protect(t, region(di), regionPages*pagetable.PageSize, nd)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("protect domain %d", nd), err)
			break
		}
		s.doms[di] = uint64(nd)
	case x < 80: // retag one page (exercises the eager-revocation walk)
		c, err := m.Protect(t, s.pageOf(di), pagetable.PageSize, d)
		s.total += c
		if err != nil {
			s.fail(op, fmt.Sprintf("retag domain %d", d), err)
		}
	case x < 88: // unprotected access (valid inside or outside a domain)
		s.plainAccess(op, t)
	case x < 95: // kswapd pressure
		s.reclaim(t)
	default: // direct domain-to-domain switch, then exit
		if k.enter(s, op, t, dpti.DomainID(s.doms[(di+1)%len(s.doms)])) {
			c, err := m.Exit(t)
			s.total += c
			if err != nil {
				s.fail(op, "exit", err)
			}
		}
	}
}

func (dptiSoak) finish(s *SoakRun) {
	if s.cfg.Metrics != nil {
		s.sys.DPTI.Stats.Emit(s.cfg.Metrics.Add)
	}
}
