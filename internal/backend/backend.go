// Package backend is the kernel-backend registry: the one place where a
// domain-virtualization kernel (the VDom core, the libmpk baseline, the
// EPK VM model, the DPTI per-domain-page-table baseline) plugs into
// every comparison surface of the repository. A backend registers once,
// under its trace kernel-kind name, and through the Backend interface
// reaches booting (replay.Boot), trace recording (the unified tap),
// end-state verification, checkpoint capture/restore (its vdom-snap/v1
// section), metrics attribution, and the generic workload adapter
// (DomainOps) that the conformance suite, the kernel×arch matrix
// experiment, and the public vdom.WithKernel routing drive.
//
// Before the registry, five dispatch sites (replay boot, recorder
// attach, end-state, snapshot capture, snapshot restore) each hand-wired
// the three kernels; adding a fourth meant touching all five. Now a
// kernel is one Register call.
package backend

import (
	"errors"
	"fmt"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/dpti"
	"vdom/internal/epk"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
)

// ErrDomainCapacity reports a DomainOps.Alloc against a backend whose
// fixed domain capacity (EPK's EPT groups) is exhausted.
var ErrDomainCapacity = errors.New("backend: domain capacity exhausted")

// Spec is the configuration a backend boots from — the replay.Header's
// knobs, decoupled from the trace format so non-replay callers (the
// public API, the conformance suite) can boot without forging headers.
type Spec struct {
	// Arch selects the cost table.
	Arch cycles.Arch
	// Cores is the machine size (<= 0 with a standalone backend: no
	// machine at all).
	Cores int
	// TLBCap is hw.Config.TLBCapacity (0 = unlimited).
	TLBCap int
	// NoASID disables ASID tagging (hw.Config.NoASID).
	NoASID bool
	// VDomKernel enables the VDom kernel patch (kernel.Config).
	VDomKernel bool
	// SecureGate, NoPMDOpt, StrictLRU, FlushThreshold, and Nas are
	// core.Policy knobs; other backends ignore them.
	SecureGate     bool
	NoPMDOpt       bool
	StrictLRU      bool
	FlushThreshold uint64
	Nas            int
	// Domains is EPK's fixed domain capacity.
	Domains int
	// Huge2M selects libmpk's 2 MiB page mode.
	Huge2M bool
}

// Instance is one booted system: the shared substrate (machine, kernel,
// process) plus the domain layer of its backend. Layers the backend does
// not use stay nil. replay.System is an alias of this type.
type Instance struct {
	Machine *hw.Machine
	Kernel  *kernel.Kernel
	Proc    *kernel.Process
	Manager *core.Manager
	Libmpk  *libmpk.Manager
	EPK     *epk.System
	DPTI    *dpti.Manager
}

// DomainOps is the kernel-neutral workload adapter: allocate domains,
// assign memory to them, and switch a thread's active domain, with each
// backend translating to its own primitives (VDR writes, pkey register
// writes, VMFUNC switches, pgd switches). The conformance suite and the
// kernel×arch matrix experiment drive every backend through it.
type DomainOps interface {
	// Alloc allocates a domain and returns its id.
	Alloc(t *kernel.Task) (id uint64, cost cycles.Cost, err error)
	// Free releases a domain.
	Free(t *kernel.Task, id uint64) (cycles.Cost, error)
	// Protect assigns [addr, addr+length) to the domain.
	Protect(t *kernel.Task, addr pagetable.VAddr, length uint64, id uint64) (cycles.Cost, error)
	// PrepareThread performs per-thread setup (VDom's VDR allocation);
	// n bounds how many domains the thread will touch.
	PrepareThread(t *kernel.Task, n int) (cycles.Cost, error)
	// Activate makes the domain accessible to (or current for) the thread.
	Activate(t *kernel.Task, id uint64) (cycles.Cost, error)
	// Deactivate revokes the thread's access to the domain.
	Deactivate(t *kernel.Task, id uint64) (cycles.Cost, error)
}

// Backend is one kernel's registration: how to boot it, tap it, snapshot
// it, account it, and drive it generically. Methods take the Instance so
// a Backend itself stays stateless and shareable.
type Backend interface {
	// Name is the trace kernel-kind string (replay.Kernel* constants).
	Name() string
	// Standalone reports whether this spec boots without the
	// machine/kernel substrate (EPK's pure cost model with Cores <= 0).
	Standalone(spec Spec) bool
	// Attach builds the backend's domain layer onto the instance; the
	// substrate is already booted unless Standalone.
	Attach(inst *Instance, spec Spec) error
	// AttachTap points the domain layer's trace tap at t.
	AttachTap(inst *Instance, t tap.Tap)
	// SetMetrics installs the cycle-attribution registry on the domain
	// layer (nil detaches).
	SetMetrics(inst *Instance, r *metrics.Registry)
	// EmitEnd emits the backend's end-state counters (trace End section).
	EmitEnd(inst *Instance, emit func(name string, v uint64))
	// Present reports whether the instance carries this backend's layer.
	Present(inst *Instance) bool
	// Section is the backend's vdom-snap/v1 section name.
	Section() string
	// ProcScoped reports whether the section lives inside the
	// process-state block of a snapshot (false for EPK, which can exist
	// without a process).
	ProcScoped() bool
	// Capture returns the gob-encodable checkpoint image of the domain
	// layer. tableID maps live page tables to stable ids (nil for
	// backends that keep no table references).
	Capture(inst *Instance, tableID func(*pagetable.Table) int) any
	// Restore decodes the checkpoint image via decode and loads it into
	// the freshly attached domain layer. table and task resolve stable
	// table ids and trace thread ids (nil for backends needing neither).
	Restore(inst *Instance, decode func(any) error, table func(id int) *pagetable.Table, task func(tid int) *kernel.Task) error
	// Ops returns the kernel-neutral workload adapter over the instance.
	Ops(inst *Instance) DomainOps
}

// registry holds backends in registration order (which is also snapshot
// section order, so it must stay stable: vdom, libmpk, epk, dpti).
var registry []Backend

// Register adds a backend under its Name. Duplicate names panic: the
// name is the trace kernel kind, and two owners would corrupt replay.
func Register(b Backend) {
	for _, have := range registry {
		if have.Name() == b.Name() {
			panic(fmt.Sprintf("backend: duplicate registration of %q", b.Name()))
		}
	}
	registry = append(registry, b)
}

// Get returns the backend registered under name.
func Get(name string) (Backend, bool) {
	for _, b := range registry {
		if b.Name() == name {
			return b, true
		}
	}
	return nil, false
}

// Names lists the registered backend names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name()
	}
	return out
}

// All returns the registered backends in registration order.
func All() []Backend {
	return append([]Backend(nil), registry...)
}

// Of returns the backend whose domain layer the instance carries, or nil
// for a bare substrate.
func Of(inst *Instance) Backend {
	for _, b := range registry {
		if b.Present(inst) {
			return b
		}
	}
	return nil
}

// SetMetrics installs the cycle-attribution registry on the kernel and
// the present domain layer (nil detaches).
func (inst *Instance) SetMetrics(r *metrics.Registry) {
	if inst.Kernel != nil {
		inst.Kernel.SetMetrics(r)
	}
	if b := Of(inst); b != nil {
		b.SetMetrics(inst, r)
	}
}

// BootSubstrate boots the shared machine/kernel/process substrate the
// non-standalone backends attach to.
func BootSubstrate(inst *Instance, spec Spec) {
	inst.Machine = hw.NewMachine(hw.Config{
		Arch:        spec.Arch,
		NumCores:    spec.Cores,
		TLBCapacity: spec.TLBCap,
		NoASID:      spec.NoASID,
	})
	inst.Kernel = kernel.New(kernel.Config{Machine: inst.Machine, VDomEnabled: spec.VDomKernel})
	inst.Proc = inst.Kernel.NewProcess()
}

func init() {
	// Registration order is snapshot section order; keep it.
	Register(vdomBackend{})
	Register(libmpkBackend{})
	Register(epkBackend{})
	Register(dptiBackend{})
}
