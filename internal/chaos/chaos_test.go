package chaos

import (
	"reflect"
	"testing"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/tlb"
)

// allFaults is the full fault mix required by the acceptance criteria:
// IPI drop/delay, stale TLB retention, ASID exhaustion (plus a shrunken
// ASID space for organic rollover), transient VDS allocation failure,
// pdom exhaustion and spurious domain faults — all enabled at once.
func allFaults(seed uint64) Config {
	return Config{
		Seed:           seed,
		DropIPI:        0.05,
		DelayIPI:       0.05,
		StaleTLB:       0.03,
		ASIDExhaustion: 0.02,
		ASIDLimit:      24,
		VDSAllocFail:   0.10,
		PdomExhaustion: 0.05,
		SpuriousFault:  0.02,
	}
}

// TestSoakAllFaultsClean is the headline robustness check: a long soak
// with every fault class enabled must complete with zero auditor
// violations and zero unrecovered faults.
func TestSoakAllFaultsClean(t *testing.T) {
	res := Soak(SoakConfig{Chaos: allFaults(42), Ops: 5000})

	for _, v := range res.Violations {
		t.Errorf("auditor violation: %s", v)
	}
	for _, u := range res.Unrecovered {
		t.Errorf("unrecovered fault: %s", u)
	}
	if res.TotalInjected() == 0 {
		t.Fatal("soak injected no faults; fault mix is not exercising anything")
	}
	// Every fault class must actually have fired during the soak.
	for _, kind := range []string{
		"inject:ipi-drop", "inject:ipi-delay", "inject:stale-tlb",
		"inject:asid-exhaustion", "inject:vds-alloc-fail",
		"inject:pdom-exhaustion", "inject:spurious-fault",
	} {
		if res.Injected[kind] == 0 {
			t.Errorf("fault class %s never fired in %d ops", kind, res.Ops)
		}
	}
	// And the recovery paths must have run.
	for _, kind := range []string{
		"recover:ipi-retry", "recover:asid-rollover",
		"recover:stale-full-flush", "recover:spurious-repair",
		"recover:degraded",
	} {
		if res.Recovered[kind] == 0 {
			t.Errorf("recovery path %s never ran in %d ops", kind, res.Ops)
		}
	}
	if res.ASIDRollovers == 0 {
		t.Error("no ASID generation rollover despite shrunken ASID space")
	}
	if res.Audits < res.Ops/100 {
		t.Errorf("only %d audit passes over %d ops", res.Audits, res.Ops)
	}
}

// TotalInjected sums a result's injection counters (test helper mirror of
// the injector method).
func (r *SoakResult) TotalInjected() uint64 {
	var n uint64
	for _, v := range r.Injected {
		n += v
	}
	return n
}

// TestSoakDeterministic replays the same seed twice and demands the
// identical fault/recovery event sequence, counters and cycle total.
func TestSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{Chaos: allFaults(7), Ops: 2000}
	a := Soak(cfg)
	b := Soak(cfg)

	if a.Cycles != b.Cycles {
		t.Errorf("cycle totals diverge: %d vs %d", a.Cycles, b.Cycles)
	}
	if !reflect.DeepEqual(a.Injected, b.Injected) {
		t.Errorf("injection counters diverge:\n%v\n%v", a.Injected, b.Injected)
	}
	if !reflect.DeepEqual(a.Recovered, b.Recovered) {
		t.Errorf("recovery counters diverge:\n%v\n%v", a.Recovered, b.Recovered)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event logs diverge in length: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverges: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}

	// A different seed must produce a different fault stream.
	c := Soak(SoakConfig{Chaos: allFaults(8), Ops: 2000})
	if reflect.DeepEqual(a.Injected, c.Injected) && a.Cycles == c.Cycles {
		t.Error("different seeds produced an identical run; PRNG is not seeded")
	}
}

// TestSoakCleanWhenOff runs the soak with a zero-probability injector:
// nothing may fire, nothing may fail, and the auditor must stay clean.
func TestSoakCleanWhenOff(t *testing.T) {
	off := Soak(SoakConfig{Chaos: Config{Seed: 99}, Ops: 1500})
	if n := off.TotalInjected(); n != 0 {
		t.Fatalf("zero-probability config injected %d faults", n)
	}
	for _, v := range off.Violations {
		t.Errorf("auditor violation with chaos off: %s", v)
	}
	for _, u := range off.Unrecovered {
		t.Errorf("unrecovered op with chaos off: %s", u)
	}
}

// bootVDom boots a 2-core VDom system with the default policy through
// the backend registry.
func bootVDom(t *testing.T) *replay.System {
	t.Helper()
	sys, err := replay.Boot(replay.Header{
		Kernel: replay.KernelVDom, Arch: "x86", Cores: 2,
		Flags: replay.HdrVDomKernel | replay.HdrSecureGate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// miniWorkload drives a fixed grant/access/revoke/free sequence and
// returns its total cycle cost, with or without a (zero-probability)
// injector attached to every layer.
func miniWorkload(t *testing.T, withInjector bool) cycles.Cost {
	t.Helper()
	sys := bootVDom(t)
	var in *Injector
	if withInjector {
		in = New(Config{Seed: 1}) // every probability zero
		in.AttachSystem(sys)
	}
	proc, mgr := sys.Proc, sys.Manager
	t0 := proc.NewTask(0)
	t1 := proc.NewTask(1)

	var total cycles.Cost
	step := func(c cycles.Cost, err error) {
		if err != nil {
			t.Fatalf("mini workload step failed: %v", err)
		}
		total += c
	}
	base := pagetable.VAddr(0x5000_0000)
	step(t0.Mmap(base, 16*pagetable.PageSize, true))
	for _, task := range []*kernel.Task{t0, t1} {
		step(mgr.VdrAlloc(task, 0))
	}
	var ds []core.VdomID
	for i := 0; i < 3; i++ {
		d, c := mgr.AllocVdom(false)
		total += c
		step(mgr.Mprotect(t0, base+pagetable.VAddr(i*4)*pagetable.PageSize,
			4*pagetable.PageSize, d))
		ds = append(ds, d)
	}
	for _, d := range ds {
		step(mgr.WrVdr(t0, d, core.VPermReadWrite))
		step(mgr.WrVdr(t1, d, core.VPermRead))
	}
	for i := 0; i < 12; i++ {
		step(t0.Access(base+pagetable.VAddr(i)*pagetable.PageSize, true))
		step(t1.Access(base+pagetable.VAddr(i)*pagetable.PageSize, false))
	}
	step(mgr.WrVdr(t1, ds[0], core.VPermNone)) // cross-core revoke shootdown
	step(mgr.FreeVdom(ds[1]))
	if withInjector && in.TotalInjected()+in.TotalRecovered() != 0 {
		t.Fatalf("zero-probability injector recorded events: %v / %v",
			in.Injected(), in.Recovered())
	}
	return total
}

// TestZeroCostWhenOff proves the fault hooks are free when disabled: the
// identical workload charges exactly the same cycles with a
// zero-probability injector attached as with no injector at all.
func TestZeroCostWhenOff(t *testing.T) {
	bare := miniWorkload(t, false)
	hooked := miniWorkload(t, true)
	if bare != hooked {
		t.Fatalf("chaos hooks are not zero-cost when off: %d cycles bare, %d hooked",
			bare, hooked)
	}
}

// TestAuditCatchesIncoherence plants deliberate incoherences in a core's
// TLB and checks the auditor reports each — guarding against an auditor
// that passes because it checks nothing.
func TestAuditCatchesIncoherence(t *testing.T) {
	sys := bootVDom(t)
	machine, kern, proc, mgr := sys.Machine, sys.Kernel, sys.Proc, sys.Manager
	task := proc.NewTask(0)
	base := pagetable.VAddr(0x6000_0000)
	if _, err := task.Mmap(base, 4*pagetable.PageSize, true); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Access(base, true); err != nil {
		t.Fatal(err)
	}
	if got := Audit(machine, kern, mgr); len(got) != 0 {
		t.Fatalf("clean system reported violations: %v", got)
	}

	// A translation for a live ASID that the page table no longer backs.
	machine.Core(0).TLB().Insert(tlb.Entry{
		ASID: task.BaseASID(), VPN: uint64(base)/pagetable.PageSize + 100,
	})
	// A cached entry writable beyond its PTE.
	wr := proc.AS().Shadow().Walk(base)
	machine.Core(1).TLB().Insert(tlb.Entry{
		ASID: task.BaseASID(), VPN: uint64(base) / pagetable.PageSize,
		Frame: wr.PTE.Frame + 7, Pdom: wr.PTE.Pdom, Writable: true,
	})
	got := Audit(machine, kern, mgr)
	if len(got) != 2 {
		t.Fatalf("planted 2 incoherences, auditor found %d: %v", len(got), got)
	}
	// A zombie entry (retired ASID) must NOT be flagged.
	machine.Core(1).TLB().Insert(tlb.Entry{ASID: 0x7777, VPN: 1, Frame: 1})
	if after := Audit(machine, kern, mgr); len(after) != 2 {
		t.Fatalf("zombie ASID entry changed the verdict: %v", after)
	}
}

// TestSoakResultMerge checks that merging two shard soaks in shard order
// reproduces the counters of one run covering both shards' work: sums,
// key-wise map addition, ordered listing append, and CoreStats addition.
func TestSoakResultMerge(t *testing.T) {
	run := func(seed uint64, ops int) *SoakResult {
		return Soak(SoakConfig{
			Chaos: Config{Seed: seed, DropIPI: 0.1, StaleTLB: 0.05, VDSAllocFail: 0.2},
			Ops:   ops,
		})
	}
	a, b := run(1, 300), run(2, 300)

	var agg SoakResult
	agg.Merge(a)
	agg.Merge(b)
	agg.Merge(nil) // must be a no-op

	if agg.Ops != a.Ops+b.Ops || agg.Cycles != a.Cycles+b.Cycles ||
		agg.Audits != a.Audits+b.Audits {
		t.Errorf("scalar sums wrong: agg=%+v", agg)
	}
	for k, v := range a.Injected {
		if agg.Injected[k] != v+b.Injected[k] {
			t.Errorf("Injected[%q] = %d, want %d", k, agg.Injected[k], v+b.Injected[k])
		}
	}
	if len(agg.Events) != len(a.Events)+len(b.Events) {
		t.Errorf("Events len = %d, want %d", len(agg.Events), len(a.Events)+len(b.Events))
	}
	if n := len(a.Events); n > 0 && len(b.Events) > 0 {
		if !reflect.DeepEqual(agg.Events[n], b.Events[0]) {
			t.Error("Merge did not append b's events after a's")
		}
	}
	if got, want := agg.CoreStats, a.CoreStats.Add(b.CoreStats); got != want {
		t.Errorf("CoreStats = %+v, want %+v", got, want)
	}
}
