package workload

import (
	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/par"
	"vdom/internal/replay"
)

// Table3Row is one measured row of Table 3 ("Average cycles of common
// operations"). ARM value 0 with Defined=false means "undefined", as the
// paper marks VMFUNC on ARM.
type Table3Row struct {
	Operation  string
	X86        float64
	ARM        float64
	ARMDefined bool
}

// Table3 measures every row of Table 3 on both simulated architectures.
func Table3() []Table3Row {
	return Table3Parallel(1)
}

// Table3Parallel is Table3 with the measured cells (each an isolated
// machine/kernel fixture) fanned out across at most `workers` goroutines.
// Cells write disjoint row fields and the parameter-table rows are filled
// inline, so the result is identical for every worker count.
func Table3Parallel(workers int) []Table3Row {
	rows := []Table3Row{
		{Operation: "empty API call return", ARMDefined: true},
		{Operation: "empty syscall return", ARMDefined: true},
		{Operation: "update PKRU or DACR", ARMDefined: true},
		{Operation: "VMFUNC"},
		{Operation: "fast wrvdr API call return", ARMDefined: true},
		{Operation: "secure wrvdr API call return", ARMDefined: true},
		{Operation: "secure wrvdr with 4KB eviction", ARMDefined: true},
		{Operation: "secure wrvdr with 2MB eviction", ARMDefined: true},
		{Operation: "secure wrvdr with 64MB eviction", ARMDefined: true},
		{Operation: "secure wrvdr with VDS switch", ARMDefined: true},
	}
	type cell struct {
		row     int
		arch    cycles.Arch
		measure func() float64
	}
	var cells []cell
	for _, arch := range []cycles.Arch{cycles.X86, cycles.ARM} {
		arch := arch
		p := cycles.ParamsFor(arch)
		set := func(i int, v float64) {
			if arch == cycles.X86 {
				rows[i].X86 = v
			} else {
				rows[i].ARM = v
			}
		}
		set(0, float64(p.CallReturn))
		set(1, float64(p.SyscallReturn))
		set(2, float64(p.PermRegWrite))
		if arch == cycles.X86 {
			set(3, float64(epk.VMFuncCycles(1)))
		}
		cells = append(cells,
			cell{4, arch, func() float64 { return measureWrvdr(arch, false) }},
			cell{5, arch, func() float64 { return measureWrvdr(arch, true) }},
			cell{6, arch, func() float64 { return measureEviction(arch, pagetable.PageSize) }},
			cell{7, arch, func() float64 { return measureEviction(arch, pagetable.PMDSize) }},
			cell{8, arch, func() float64 { return measureEviction(arch, 64<<20) }},
			cell{9, arch, func() float64 { return measureVDSSwitch(arch) }},
		)
	}
	par.Do(workers, len(cells), func(i int) {
		v := cells[i].measure()
		if cells[i].arch == cycles.X86 {
			rows[cells[i].row].X86 = v
		} else {
			rows[cells[i].row].ARM = v
		}
	})
	return rows
}

type t3fixture struct {
	proc *kernel.Process
	mgr  *core.Manager
	task *kernel.Task
	next pagetable.VAddr
}

func newT3(arch cycles.Arch, secure bool, nas int) *t3fixture {
	// Zero FlushThreshold and Nas take the DefaultPolicy values.
	spec := backend.Spec{Arch: arch, Cores: 2, VDomKernel: true, SecureGate: secure}
	sys := &backend.Instance{}
	backend.BootSubstrate(sys, spec)
	b, _ := backend.Get(replay.KernelVDom)
	if err := b.Attach(sys, spec); err != nil {
		panic(err)
	}
	task := sys.Proc.NewTask(0)
	if _, err := sys.Manager.VdrAlloc(task, nas); err != nil {
		panic(err)
	}
	return &t3fixture{proc: sys.Proc, mgr: sys.Manager, task: task, next: 0x40_0000_0000}
}

// region maps and protects `bytes` under a fresh vdom, fully populated.
func (f *t3fixture) region(bytes uint64) core.VdomID {
	base := f.next
	f.next += pagetable.VAddr(bytes) + 8*pagetable.PMDSize
	// Keep 2 MiB alignment for the PMD fast path.
	f.next = pagetable.VAddr(uint64(f.next+pagetable.PMDSize-1) &^ (pagetable.PMDSize - 1))
	if _, err := f.task.Mmap(base, bytes, true); err != nil {
		panic(err)
	}
	d, _ := f.mgr.AllocVdom(false)
	if _, err := f.mgr.Mprotect(f.task, base, bytes, d); err != nil {
		panic(err)
	}
	if _, err := f.proc.AS().Populate(f.proc.AS().Shadow(), base, bytes); err != nil {
		panic(err)
	}
	// Fault the region into the initial VDS so evictions operate on
	// present pages.
	if _, err := f.mgr.WrVdr(f.task, d, core.VPermReadWrite); err != nil {
		panic(err)
	}
	if _, err := f.proc.AS().Populate(f.mgr.VDROf(f.task).Current().Table(), base, bytes); err != nil {
		panic(err)
	}
	if _, err := f.mgr.WrVdr(f.task, d, core.VPermNone); err != nil {
		panic(err)
	}
	return d
}

// measureWrvdr measures a steady-state wrvdr on a mapped vdom.
func measureWrvdr(arch cycles.Arch, secure bool) float64 {
	f := newT3(arch, secure, 2)
	d := f.region(pagetable.PageSize)
	var total cycles.Cost
	const n = 64
	perm := []core.VPerm{core.VPermReadWrite, core.VPermRead}
	for i := 0; i < n; i++ {
		c, err := f.mgr.WrVdr(f.task, d, perm[i%2])
		if err != nil {
			panic(err)
		}
		total += c
	}
	return float64(total) / n
}

// measureEviction measures the steady-state cost of a wrvdr that must
// evict a `bytes`-sized vdom and remap another of the same size, with the
// thread confined to one address space (nas=1).
func measureEviction(arch cycles.Arch, bytes uint64) float64 {
	f := newT3(arch, true, 1)
	n := core.UsablePdomsPerVDS + 2
	doms := make([]core.VdomID, n)
	for i := range doms {
		doms[i] = f.region(bytes)
	}
	// Warm up: activate each once (fills all pdoms, starts evicting),
	// then measure only the activations that actually evict — the row
	// is "wrvdr WITH eviction".
	cycle := func(measure bool) float64 {
		var total cycles.Cost
		count := 0
		for _, d := range doms {
			pre := f.mgr.Stats.Evictions
			c, err := f.mgr.WrVdr(f.task, d, core.VPermReadWrite)
			if err != nil {
				panic(err)
			}
			if measure && f.mgr.Stats.Evictions > pre {
				total += c
				count++
			}
			if _, err := f.mgr.WrVdr(f.task, d, core.VPermNone); err != nil {
				panic(err)
			}
		}
		if count == 0 {
			return 0
		}
		return float64(total) / float64(count)
	}
	cycle(false)
	cycle(false)
	return cycle(true)
}

// measureVDSSwitch measures a steady-state wrvdr whose activation is a pgd
// switch to another attached VDS.
func measureVDSSwitch(arch cycles.Arch) float64 {
	f := newT3(arch, true, 4)
	n := core.UsablePdomsPerVDS + 4
	doms := make([]core.VdomID, n)
	for i := range doms {
		doms[i] = f.region(pagetable.PageSize)
	}
	cycle := func(measure bool) float64 {
		var total cycles.Cost
		count := 0
		for _, d := range doms {
			c, err := f.mgr.WrVdr(f.task, d, core.VPermReadWrite)
			if err != nil {
				panic(err)
			}
			if measure {
				total += c
				count++
			}
			if _, err := f.mgr.WrVdr(f.task, d, core.VPermNone); err != nil {
				panic(err)
			}
		}
		return float64(total) / float64(count)
	}
	cycle(false)
	// Steady state: alternate between the two vdoms with different home
	// VDSes to make every activation a switch.
	a, b := doms[0], doms[n-1]
	var total cycles.Cost
	const rounds = 32
	for i := 0; i < rounds; i++ {
		for _, d := range []core.VdomID{a, b} {
			c, err := f.mgr.WrVdr(f.task, d, core.VPermReadWrite)
			if err != nil {
				panic(err)
			}
			total += c
			if _, err := f.mgr.WrVdr(f.task, d, core.VPermNone); err != nil {
				panic(err)
			}
		}
	}
	return float64(total) / (2 * rounds)
}
