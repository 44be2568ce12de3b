package chaos

import (
	"fmt"
	"math"

	"vdom/internal/replay"
	"vdom/internal/tlb"
)

// SoakWorkload is the Header.Workload name of chaos-soak recordings;
// replay tooling keys on it to re-attach the injector before replaying.
const SoakWorkload = "chaos-soak"

// Extra keys carrying the injector configuration in a soak trace header.
// Probabilities are stored as math.Float64bits so the header stays a
// pure uint64 map.
const (
	extraSeed           = "chaos/seed"
	extraDropIPI        = "chaos/drop-ipi"
	extraDelayIPI       = "chaos/delay-ipi"
	extraStaleTLB       = "chaos/stale-tlb"
	extraASIDExhaustion = "chaos/asid-exhaustion"
	extraASIDLimit      = "chaos/asid-limit"
	extraVDSAllocFail   = "chaos/vds-alloc-fail"
	extraPdomExhaustion = "chaos/pdom-exhaustion"
	extraSpuriousFault  = "chaos/spurious-fault"
)

// soakHeader describes a soak run's platform: the kernel's own header
// fields plus the machine geometry and the injector configuration in
// Extra, so ReplayTrace can rebuild the identical fault stream. The
// workload name is SoakWorkload for every kernel; the Kernel field is
// what selects the boot.
func soakHeader(cfg SoakConfig) replay.Header {
	h := soakKernels[cfg.Kernel].header(cfg)
	h.Arch = replay.ArchName(cfg.Arch)
	h.Cores = cfg.Cores
	h.Seed = cfg.Chaos.Seed
	h.Workload = SoakWorkload
	h.Extra = ExtraConfig(cfg.Chaos)
	return h
}

// ConfigFromExtra rebuilds an injector configuration from trace-header
// Extra keys. The boolean reports whether the map carried a chaos
// configuration at all (headers of fault-free runs do not).
func ConfigFromExtra(extra map[string]uint64) (Config, bool) {
	if _, ok := extra[extraSeed]; !ok {
		return Config{}, false
	}
	return Config{
		Seed:           extra[extraSeed],
		DropIPI:        math.Float64frombits(extra[extraDropIPI]),
		DelayIPI:       math.Float64frombits(extra[extraDelayIPI]),
		StaleTLB:       math.Float64frombits(extra[extraStaleTLB]),
		ASIDExhaustion: math.Float64frombits(extra[extraASIDExhaustion]),
		ASIDLimit:      tlb.ASID(extra[extraASIDLimit]),
		VDSAllocFail:   math.Float64frombits(extra[extraVDSAllocFail]),
		PdomExhaustion: math.Float64frombits(extra[extraPdomExhaustion]),
		SpuriousFault:  math.Float64frombits(extra[extraSpuriousFault]),
	}, true
}

// AttachSystem wires the injector into every layer a booted instance
// carries that has a chaos hook: the machine, the kernel, and (for VDom
// systems) the core manager. Layers the instance lacks are skipped.
func (in *Injector) AttachSystem(sys *replay.System) {
	if sys.Machine != nil {
		in.AttachMachine(sys.Machine)
	}
	if sys.Kernel != nil {
		in.AttachKernel(sys.Kernel)
	}
	if sys.Manager != nil {
		in.AttachManager(sys.Manager)
	}
}

// ExtraConfig encodes an injector configuration into trace-header Extra
// keys; ConfigFromExtra is the inverse. Soak headers carry it, and the
// scenario compiler embeds a phase's fault schedule into cell headers
// through it, so a faulted trace replays under the identical fault
// stream.
func ExtraConfig(cfg Config) map[string]uint64 {
	return map[string]uint64{
		extraSeed:           cfg.Seed,
		extraDropIPI:        math.Float64bits(cfg.DropIPI),
		extraDelayIPI:       math.Float64bits(cfg.DelayIPI),
		extraStaleTLB:       math.Float64bits(cfg.StaleTLB),
		extraASIDExhaustion: math.Float64bits(cfg.ASIDExhaustion),
		extraASIDLimit:      uint64(cfg.ASIDLimit),
		extraVDSAllocFail:   math.Float64bits(cfg.VDSAllocFail),
		extraPdomExhaustion: math.Float64bits(cfg.PdomExhaustion),
		extraSpuriousFault:  math.Float64bits(cfg.SpuriousFault),
	}
}

// configFromHeader rebuilds the injector configuration a soak trace was
// recorded under.
func configFromHeader(h replay.Header) (Config, error) {
	if h.Workload != SoakWorkload {
		return Config{}, fmt.Errorf("%w: workload %q is not a chaos-soak trace", replay.ErrBadRecord, h.Workload)
	}
	cfg, ok := ConfigFromExtra(h.Extra)
	if !ok {
		return Config{}, fmt.Errorf("%w: chaos-soak trace carries no injector config", replay.ErrBadRecord)
	}
	return cfg, nil
}

// ReplayTrace replays a chaos-soak recording: it rebuilds the injector
// from the trace header and attaches it to the freshly booted system
// before the first event runs, so the replay experiences the identical
// fault stream the recording did. Any Options.Setup the caller supplied
// runs after the injector is attached.
func ReplayTrace(t *replay.Trace, opt replay.Options) (*replay.Result, error) {
	cfg, err := configFromHeader(t.Header)
	if err != nil {
		return nil, err
	}
	inner := opt.Setup
	opt.Setup = func(sys *replay.System) {
		New(cfg).AttachSystem(sys)
		if inner != nil {
			inner(sys)
		}
	}
	return replay.Run(t, opt)
}
