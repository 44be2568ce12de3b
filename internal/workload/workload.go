// Package workload implements the application models of the VDom paper's
// evaluation: the httpd+OpenSSL server (Figures 1 and 5), the MySQL OLTP
// server (Figure 6), the persistent-memory String Replace benchmark
// (Figure 7), the synthetic domain-access patterns (Table 4), the
// multi-VDS memory-synchronization benchmark (Table 5), a UnixBench-like
// kernel suite (§7.3), and an LTP-like compatibility suite (§7.1).
//
// Each workload issues the same protection events per unit of work as the
// paper's applications, on top of the simulated substrate; baseline work
// amounts are calibrated to the paper's absolute throughputs so that
// relative overheads are comparable.
//
// It covers the paper's §7 (evaluation) workloads and is the "Workloads"
// row of the DESIGN.md §3 module map. The Table 4 pattern runners accept
// a metrics.Registry and a metrics.Trace (PatternConfig) whose cycle
// attribution sums exactly to each cell's measured total
// (OBSERVABILITY.md).
package workload

import (
	"fmt"

	"vdom/internal/backend"
	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
)

// System selects which protection system a workload runs under.
type System int

// The compared systems of §7.6.
const (
	// Original runs unprotected.
	Original System = iota
	// VDom protects with the paper's system.
	VDom
	// EPK protects with the VMFUNC/EPT baseline inside a VM.
	EPK
	// Libmpk protects with the disabled-PTE baseline.
	Libmpk
	// VDomLowerbound protects everything with one physical domain
	// (the paper's "lowerbound" line).
	VDomLowerbound
)

// String names the system as the paper's figures do.
func (s System) String() string {
	switch s {
	case Original:
		return "original"
	case VDom:
		return "VDom"
	case EPK:
		return "EPK"
	case Libmpk:
		return "libmpk"
	case VDomLowerbound:
		return "lowerbound"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// ClockHz returns the simulated clock rate used to convert cycles to
// seconds: 2.1 GHz for the Xeon Gold 6230R, 1.2 GHz for the Raspberry
// Pi 3's Cortex-A53, 3.8 GHz for the projected POWER9, and 1.5 GHz for
// the projected sealable-PKS RISC-V core (a U74-class in-order part;
// the SealPK prototype itself is an FPGA softcore).
func ClockHz(arch cycles.Arch) float64 {
	switch arch {
	case cycles.ARM:
		return 1.2e9
	case cycles.Power:
		return 3.8e9
	case cycles.RISCV:
		return 1.5e9
	default:
		return 2.1e9
	}
}

// DefaultCores returns the hardware-thread count of each evaluation
// platform (52 on the Xeon, 4 on the Pi, 44 on the projected POWER9,
// 4 on the projected RISC-V board).
func DefaultCores(arch cycles.Arch) int {
	switch arch {
	case cycles.ARM:
		return 4
	case cycles.Power:
		return 44
	case cycles.RISCV:
		return 4
	default:
		return 52
	}
}

// platform is one booted system plus the simulation environment that
// drives a workload's threads on it.
type platform struct {
	*replay.System
	env   *sim.Env
	sched *kernel.Sched
	next  pagetable.VAddr
}

// newPlatform boots the platform h describes and, when rec is non-nil,
// taps every layer of it into the recording.
func newPlatform(h replay.Header, rec *replay.Recorder) *platform {
	sys := boot(h)
	if rec != nil {
		rec.AttachSystem(sys)
	}
	env := sim.NewEnv()
	return &platform{
		System: sys,
		env:    env,
		sched:  kernel.NewSched(env, sys.Kernel),
		next:   0x20_0000_0000,
	}
}

// boot builds the system a workload header describes through the backend
// registry. A header with no kernel kind is an unprotected run: the
// vanilla substrate alone, with no domain layer to replay.
func boot(h replay.Header) *replay.System {
	if h.Kernel == "" {
		spec := replay.SpecFromHeader(h)
		arch, err := replay.ArchFromName(h.Arch)
		if err != nil {
			panic(fmt.Sprintf("workload: boot: %v", err))
		}
		spec.Arch = arch
		sys := &replay.System{}
		backend.BootSubstrate(sys, spec)
		return sys
	}
	sys, err := replay.Boot(h)
	if err != nil {
		panic(fmt.Sprintf("workload: boot: %v", err))
	}
	return sys
}

// alloc reserves a PMD-separated virtual region of `bytes` (page-aligned
// up) and mmaps it through task.
func (pl *platform) alloc(task *kernel.Task, bytes uint64) (pagetable.VAddr, error) {
	bytes = (bytes + pagetable.PageSize - 1) &^ (pagetable.PageSize - 1)
	base := pl.next
	pl.next += pagetable.VAddr(bytes) + 8*pagetable.PMDSize
	_, err := task.Mmap(base, bytes, true)
	return base, err
}

// mustAlloc is alloc that panics on error (setup-time only).
func (pl *platform) mustAlloc(task *kernel.Task, bytes uint64) pagetable.VAddr {
	a, err := pl.alloc(task, bytes)
	if err != nil {
		panic(fmt.Sprintf("workload: setup mmap failed: %v", err))
	}
	return a
}

// spinQuantum is the burst length of one busy-wait poll iteration when a
// libmpk caller finds every hardware key in use.
const spinQuantum = 4_000

// libmpkAcquire activates (v, perm) for task under libmpk inside the
// simulator, reproducing libmpk's behaviour under contention: the global
// cache lock serializes key activations, and when every hardware key is
// held by some thread the caller burns spinQuantum-cycle bursts on its
// core until a key is released. The busy-wait cycles are recorded in the
// manager's stats.
func libmpkAcquire(sched *kernel.Sched, p *sim.Proc, lock *sim.Resource, m *libmpk.Manager, task *kernel.Task, v libmpk.Vkey, perm hw.Perm) cycles.Cost {
	var total cycles.Cost
	// Fast path: permission change on a resident key (or a revocation)
	// never takes the cache lock.
	if m.Mapped(v) || perm == hw.PermNone {
		var err error
		total += sched.Run(p, task, func() cycles.Cost {
			c, e := m.PkeySet(nil, task, v, perm)
			err = e
			return c
		})
		if err == nil {
			return total
		}
	}
	for {
		lock.Acquire(p, 1)
		var err error
		total += sched.Run(p, task, func() cycles.Cost {
			c, e := m.PkeySet(nil, task, v, perm)
			err = e
			return c
		})
		lock.Release(1)
		if err == nil {
			return total
		}
		// All keys held: spin one quantum and retry.
		m.Stats.BusyWaits++
		m.Stats.BusyWaitCycles += spinQuantum
		total += sched.Run(p, task, func() cycles.Cost { return spinQuantum })
	}
}

// epkDomains manages EPK's dynamic domain ids with a free list so that
// alloc/free-heavy workloads (httpd keys) reuse slots the way EPK's group
// allocator does.
type epkDomains struct {
	sys  *epk.System
	free []int
	next int
}

func newEPKDomains(sys *epk.System) *epkDomains {
	return &epkDomains{sys: sys}
}

func (d *epkDomains) alloc() int {
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		return id
	}
	id := d.next
	d.next++
	return id
}

func (d *epkDomains) release(id int) { d.free = append(d.free, id) }
