package workload

import (
	"fmt"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/dpti"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
)

// Pattern is a domain access order (Table 4).
type Pattern int

const (
	// Sequential iterates vdom 0..N-1 in order.
	Sequential Pattern = iota
	// SwitchTriggering traverses vdoms with strides so consecutive
	// accesses land in different address-space groups, forcing a VDS
	// (or EPT) switch on nearly every access.
	SwitchTriggering
)

// String names the pattern as Table 4 does.
func (p Pattern) String() string {
	if p == SwitchTriggering {
		return "trig"
	}
	return "seq"
}

// PatternSystem selects the Table 4 row family.
type PatternSystem int

// The Table 4 row families.
const (
	// PatternVDomSecure is VDom with the secure X86 call gate (X86s) or
	// the ARM kernel path.
	PatternVDomSecure PatternSystem = iota
	// PatternVDomFast is VDom with the fast X86 API (X86f).
	PatternVDomFast
	// PatternVDomEvict is VDom restricted to one address space
	// (X86e/ARMe): evictions instead of VDS switches.
	PatternVDomEvict
	// PatternLibmpk is the libmpk baseline.
	PatternLibmpk
	// PatternEPK is the EPK baseline (cycle model).
	PatternEPK
	// PatternDPTI is the per-domain-page-table baseline: activation is a
	// domain Enter (pgd switch), so every switch pays address-space
	// change plus TLB refill instead of a key-register write.
	PatternDPTI
)

// String names the row family.
func (s PatternSystem) String() string {
	switch s {
	case PatternVDomSecure:
		return "VDom-secure"
	case PatternVDomFast:
		return "VDom-fast"
	case PatternVDomEvict:
		return "VDom-evict"
	case PatternLibmpk:
		return "libmpk"
	case PatternEPK:
		return "EPK"
	case PatternDPTI:
		return "DPTI"
	default:
		return fmt.Sprintf("PatternSystem(%d)", int(s))
	}
}

// PatternConfig describes one Table 4 measurement: a single thread
// activating N 2 MiB (512-page) vdoms in a given order and measuring the
// average cycles of each activating wrvdr (or pkey_set / EPT switch).
type PatternConfig struct {
	Arch     cycles.Arch
	System   PatternSystem
	Pattern  Pattern
	NumVdoms int
	// Rounds of measurement after warm-up (default 12 + 3 warm-up).
	Rounds int

	// Ablation knobs (VDom rows only).

	// NoASID disables ASID tagging: every pgd switch flushes the TLB.
	NoASID bool
	// StrictLRU disables the HLRU last-pdom heuristic.
	StrictLRU bool
	// NoPMDOpt disables the PMD-disable eviction fast path.
	NoPMDOpt bool
	// FlushThresholdPages overrides the range-flush/ASID-flush cutoff.
	FlushThresholdPages uint64

	// Observability (both optional; nil costs nothing).

	// Metrics, when non-nil, is attached to every instrumented layer of
	// the cell's system. The runner additionally attributes
	// harness-level costs the layers do not cover (EPK switches) so the
	// registry's cycle attribution sums to exactly the cell's
	// TotalCycles, and harvests each layer's event counters when the
	// cell finishes.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives one Chrome-trace decision span per
	// domain-activation outcome (map/evict/switch/migrate for VDom
	// rows, pkey-set / ept-switch for the baselines), timestamped on
	// the cell's cumulative cycle clock.
	Trace *metrics.Trace
	// Record, when non-nil, captures the cell's domain-op stream
	// (internal/replay); the caller attaches it to a header and seals
	// the trace with Finish.
	Record *replay.Recorder
}

// PatternResult is the measured average.
type PatternResult struct {
	Config PatternConfig
	// AvgCycles is the average cost of one activating wrvdr (the Table 4
	// metric).
	AvgCycles float64
	// AvgTouchCycles is the average cost of the memory accesses that
	// follow each activation (TLB refill effects; used by the ASID
	// ablation).
	AvgTouchCycles float64
	Activations    int
	// TotalCycles is the harness's independent grand total: every cycle
	// cost the runner observed, including setup, warm-up, and
	// deactivations. When PatternConfig.Metrics is set, the registry's
	// per-(layer, op) cycle attribution sums to exactly this value.
	TotalCycles uint64
}

// pmPages is the page count of each 2 MiB benchmark vdom.
const pmPages = pagetable.PMDSize / pagetable.PageSize

// order returns the access order for one round.
func order(p Pattern, n int) []int {
	idx := make([]int, 0, n)
	if p == Sequential {
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	// Interleave across address-space groups: position j of group g is
	// visited as (offset j, group g), so consecutive accesses alternate
	// groups whenever more than one group exists.
	group := core.UsablePdomsPerVDS
	groups := (n + group - 1) / group
	for j := 0; j < group; j++ {
		for g := 0; g < groups; g++ {
			d := g*group + j
			if d < n {
				idx = append(idx, d)
			}
		}
	}
	return idx
}

// RunPattern executes one Table 4 cell.
func RunPattern(cfg PatternConfig) PatternResult {
	if cfg.Rounds == 0 {
		cfg.Rounds = 12
	}
	const warmup = 3
	switch cfg.System {
	case PatternEPK:
		return runPatternEPK(cfg, warmup)
	case PatternLibmpk:
		return runPatternLibmpk(cfg, warmup)
	case PatternDPTI:
		return runPatternDPTI(cfg, warmup)
	default:
		return runPatternVDom(cfg, warmup)
	}
}

// bootPattern boots a Table 4 cell's system from its header, taps it
// into cfg.Record, spawns the cell's one thread (none for the standalone
// EPK cost model), and attaches cfg.Metrics.
func bootPattern(cfg PatternConfig) (*replay.System, *kernel.Task) {
	sys := boot(patternHeader(cfg, "table4"))
	if cfg.Record != nil {
		cfg.Record.AttachSystem(sys)
	}
	var task *kernel.Task
	if sys.Proc != nil {
		task = sys.Proc.NewTask(0)
		if cfg.Record != nil {
			cfg.Record.Spawn(task)
		}
	}
	sys.SetMetrics(cfg.Metrics)
	return sys, task
}

func runPatternVDom(cfg PatternConfig, warmup int) PatternResult {
	sys, task := bootPattern(cfg)
	proc, mgr, rec := sys.Proc, sys.Manager, cfg.Record

	// grand is the cell's cumulative cycle clock; every observed cost is
	// funnelled through add so PatternResult.TotalCycles and the trace
	// timestamps agree.
	var grand uint64
	add := func(c cycles.Cost) cycles.Cost { grand += uint64(c); return c }
	if cfg.Trace != nil {
		mgr.SetTracer(func(e core.Event) {
			cfg.Trace.Decision(e.Kind.String(), e.TID, grand, uint64(e.Cost), map[string]uint64{
				"vdom": uint64(e.Vdom), "vds": uint64(e.VDS), "pdom": uint64(e.Pdom),
			})
		})
	}

	nas := 0
	if cfg.System == PatternVDomEvict {
		nas = 1
	} else {
		nas = (cfg.NumVdoms+core.UsablePdomsPerVDS-1)/core.UsablePdomsPerVDS + 1
	}
	if c, err := mgr.VdrAlloc(task, nas); err != nil {
		panic(err)
	} else {
		add(c)
	}

	// populate pre-faults a domain's pages; it returns a page count, not
	// a cycle cost, so nothing is charged.
	populate := func(t *pagetable.Table, base pagetable.VAddr) {
		if _, err := proc.AS().Populate(t, base, pagetable.PMDSize); err != nil {
			panic(err)
		}
		if rec != nil {
			rec.Populate(task, base, pagetable.PMDSize, t != proc.AS().Shadow())
		}
	}

	doms := make([]core.VdomID, cfg.NumVdoms)
	bases := make([]pagetable.VAddr, cfg.NumVdoms)
	next := pagetable.VAddr(0x30_0000_0000)
	for i := range doms {
		base := next
		next += pagetable.PMDSize * 4
		if c, err := task.Mmap(base, pagetable.PMDSize, true); err != nil {
			panic(err)
		} else {
			add(c)
		}
		var c cycles.Cost
		doms[i], c = mgr.AllocVdom(false)
		add(c)
		bases[i] = base
		if c, err := mgr.Mprotect(task, base, pagetable.PMDSize, doms[i]); err != nil {
			panic(err)
		} else {
			add(c)
		}
		// Populate the pages in the shadow so evictions work on fully
		// present 512-page domains, as the paper's benchmark does.
		populate(proc.AS().Shadow(), base)
		// Activate once and populate the domain's home VDS so later
		// evictions disable all 512 pages.
		if c, err := mgr.WrVdr(task, doms[i], core.VPermReadWrite); err != nil {
			panic(err)
		} else {
			add(c)
		}
		populate(mgr.VDROf(task).Current().Table(), base)
		if c, err := task.Access(base, true); err != nil {
			panic(err)
		} else {
			add(c)
		}
		if c, err := mgr.WrVdr(task, doms[i], core.VPermNone); err != nil {
			panic(err)
		} else {
			add(c)
		}
	}

	idx := order(cfg.Pattern, cfg.NumVdoms)
	var total, touchTotal cycles.Cost
	activations := 0
	// Each activation is followed by accesses spread across the domain,
	// as the paper's benchmark "accesses" its 2 MiB vdoms.
	const touches = 4
	for r := 0; r < warmup+cfg.Rounds; r++ {
		for _, i := range idx {
			c, err := mgr.WrVdr(task, doms[i], core.VPermReadWrite)
			if err != nil {
				panic(err)
			}
			add(c)
			var tc cycles.Cost
			for k := 0; k < touches; k++ {
				step := pagetable.VAddr(k) * (pagetable.PMDSize / touches)
				a, err := task.Access(bases[i]+step, true)
				if err != nil {
					panic(err)
				}
				add(a)
				tc += a
			}
			if r >= warmup {
				total += c
				touchTotal += tc
				activations++
			}
			if c, err := mgr.WrVdr(task, doms[i], core.VPermNone); err != nil {
				panic(err)
			} else {
				add(c)
			}
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Accumulate(sys.Machine, proc.AS(), sys.Kernel)
	}
	return PatternResult{
		Config:         cfg,
		AvgCycles:      float64(total) / float64(activations),
		AvgTouchCycles: float64(touchTotal) / float64(activations),
		Activations:    activations,
		TotalCycles:    grand,
	}
}

func runPatternLibmpk(cfg PatternConfig, warmup int) PatternResult {
	sys, task := bootPattern(cfg)
	proc, m, rec := sys.Proc, sys.Libmpk, cfg.Record

	var grand uint64
	add := func(c cycles.Cost) cycles.Cost { grand += uint64(c); return c }

	keys := make([]libmpk.Vkey, cfg.NumVdoms)
	next := pagetable.VAddr(0x30_0000_0000)
	for i := range keys {
		base := next
		next += pagetable.PMDSize * 4
		if c, err := task.Mmap(base, pagetable.PMDSize, true); err != nil {
			panic(err)
		} else {
			add(c)
		}
		var c cycles.Cost
		keys[i], c = m.PkeyAlloc()
		add(c)
		if c, err := m.PkeyMprotect(nil, task, base, pagetable.PMDSize, keys[i]); err != nil {
			panic(err)
		} else {
			add(c)
		}
		if _, err := proc.AS().Populate(proc.AS().Shadow(), base, pagetable.PMDSize); err != nil {
			panic(err)
		}
		if rec != nil {
			rec.Populate(task, base, pagetable.PMDSize, false)
		}
	}

	// libmpk's eviction-based design performs identically under both
	// patterns (§7.5), so the order is irrelevant; we honour it anyway.
	idx := order(cfg.Pattern, cfg.NumVdoms)
	var total cycles.Cost
	activations := 0
	for r := 0; r < warmup+cfg.Rounds; r++ {
		for _, i := range idx {
			c, err := m.PkeySet(nil, task, keys[i], hw.PermReadWrite)
			if err != nil {
				panic(err)
			}
			if cfg.Trace != nil {
				cfg.Trace.Decision("pkey-set", 0, grand, uint64(c), map[string]uint64{"vkey": uint64(keys[i])})
			}
			add(c)
			if r >= warmup {
				total += c
				activations++
			}
			if c, err := m.PkeySet(nil, task, keys[i], hw.PermNone); err != nil {
				panic(err)
			} else {
				add(c)
			}
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Accumulate(sys.Machine, proc.AS(), sys.Kernel)
		m.Stats.Emit(cfg.Metrics.Add)
	}
	return PatternResult{Config: cfg, AvgCycles: float64(total) / float64(activations), Activations: activations, TotalCycles: grand}
}

func runPatternDPTI(cfg PatternConfig, warmup int) PatternResult {
	sys, task := bootPattern(cfg)
	proc, m, rec := sys.Proc, sys.DPTI, cfg.Record

	var grand uint64
	add := func(c cycles.Cost) cycles.Cost { grand += uint64(c); return c }

	doms := make([]dpti.DomainID, cfg.NumVdoms)
	bases := make([]pagetable.VAddr, cfg.NumVdoms)
	next := pagetable.VAddr(0x30_0000_0000)
	for i := range doms {
		base := next
		next += pagetable.PMDSize * 4
		if c, err := task.Mmap(base, pagetable.PMDSize, true); err != nil {
			panic(err)
		} else {
			add(c)
		}
		var c cycles.Cost
		doms[i], c = m.AllocDomain()
		add(c)
		bases[i] = base
		if c, err := m.Protect(task, base, pagetable.PMDSize, doms[i]); err != nil {
			panic(err)
		} else {
			add(c)
		}
		// Pre-fault in the shadow so every domain is fully present there;
		// each domain's own table still demand-fills on first touch after
		// an Enter — the page-walk pressure that defines this baseline.
		if _, err := proc.AS().Populate(proc.AS().Shadow(), base, pagetable.PMDSize); err != nil {
			panic(err)
		}
		if rec != nil {
			rec.Populate(task, base, pagetable.PMDSize, false)
		}
	}

	idx := order(cfg.Pattern, cfg.NumVdoms)
	var total, touchTotal cycles.Cost
	activations := 0
	const touches = 4
	for r := 0; r < warmup+cfg.Rounds; r++ {
		for _, i := range idx {
			c, err := m.Enter(task, doms[i])
			if err != nil {
				panic(err)
			}
			if cfg.Trace != nil {
				cfg.Trace.Decision("dpti-enter", task.TID(), grand, uint64(c), map[string]uint64{"domain": uint64(doms[i])})
			}
			add(c)
			// The accesses after the switch pay the pgd reload and the
			// cold-TLB refill of the fresh address space.
			var tc cycles.Cost
			for j := 0; j < touches; j++ {
				step := pagetable.VAddr(j) * (pagetable.PMDSize / touches)
				a, err := task.Access(bases[i]+step, true)
				if err != nil {
					panic(err)
				}
				add(a)
				tc += a
			}
			if r >= warmup {
				total += c
				touchTotal += tc
				activations++
			}
			if c, err := m.Exit(task); err != nil {
				panic(err)
			} else {
				add(c)
			}
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Accumulate(sys.Machine, proc.AS(), sys.Kernel)
		m.Stats.Emit(cfg.Metrics.Add)
	}
	return PatternResult{
		Config:         cfg,
		AvgCycles:      float64(total) / float64(activations),
		AvgTouchCycles: float64(touchTotal) / float64(activations),
		Activations:    activations,
		TotalCycles:    grand,
	}
}

func runPatternEPK(cfg PatternConfig, warmup int) PatternResult {
	sys, _ := bootPattern(cfg)
	idx := order(cfg.Pattern, cfg.NumVdoms)
	var grand uint64
	var total cycles.Cost
	activations := 0
	for r := 0; r < warmup+cfg.Rounds; r++ {
		for _, i := range idx {
			c := sys.EPK.Switch(0, i)
			if cfg.Trace != nil {
				cfg.Trace.Decision("ept-switch", 0, grand, uint64(c), map[string]uint64{"domain": uint64(i)})
			}
			cfg.Metrics.Attribute("epk", "switch", uint64(c))
			grand += uint64(c)
			if r >= warmup {
				total += c
				activations++
			}
		}
	}
	if cfg.Metrics != nil {
		sys.EPK.Stats.Emit(cfg.Metrics.Add)
	}
	return PatternResult{Config: cfg, AvgCycles: float64(total) / float64(activations), Activations: activations, TotalCycles: grand}
}
