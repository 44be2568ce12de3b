package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"vdom/internal/backend"
	"vdom/internal/chaos"
	"vdom/internal/cycles"
	"vdom/internal/fleet"
	"vdom/internal/metrics"
	"vdom/internal/par"
	"vdom/internal/replay"
	"vdom/internal/workload"
)

// The distributable grid catalog. Every experiment fan-out is a named
// grid: a deterministic function from (grid name, cell index, options)
// to one cell. The in-process pool and the multi-process fleet both
// execute cells through this catalog — the same closure either runs on
// a local goroutine or is rebuilt inside a worker subprocess from its
// CellSpec — so the two paths cannot diverge: byte-identity of the
// merged output is by construction, not by luck.
//
// Grid names optionally carry parameters after colons (e.g.
// "fig5:X86:65536" is Figure 5's X86/64KB table). Table 3 is absent by
// design: its fan-out lives inside internal/workload and stays
// in-process.

// rowSep joins multi-column row cells into one wire string; no rendered
// cell text contains it.
const rowSep = "\x1f"

// gridJobs is one grid instantiated against concrete options: its cell
// count and its index-to-cell function.
type gridJobs struct {
	n   int
	job func(i int) cell
}

// parseArch resolves an architecture name from a grid parameter.
func parseArch(s string) (cycles.Arch, error) {
	for _, a := range []cycles.Arch{cycles.X86, cycles.ARM, cycles.Power, cycles.RISCV} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("bench: unknown arch %q", s)
}

// gridFor instantiates the named grid. seed parameterizes seeded grids
// (chaos); the others ignore it.
func gridFor(name string, seed uint64, o Options) (gridJobs, error) {
	base, params := name, ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		base, params = name[:i], name[i+1:]
	}
	switch base {
	case "table4":
		return table4Grid(o), nil
	case "table5":
		return table5Grid(o), nil
	case "matrix":
		return matrixGrid(o), nil
	case "fig1":
		return fig1Grid(o), nil
	case "fig5":
		arch, size, err := parseArchSize(params)
		if err != nil {
			return gridJobs{}, err
		}
		return fig5Grid(o, arch, size), nil
	case "fig6":
		arch, err := parseArch(params)
		if err != nil {
			return gridJobs{}, err
		}
		return fig6Grid(o, arch), nil
	case "fig7":
		arch, err := parseArch(params)
		if err != nil {
			return gridJobs{}, err
		}
		return fig7Grid(o, arch), nil
	case "unixbench":
		return unixBenchGrid(o), nil
	case "chaos":
		if params != "vdom" && params != "dpti" {
			return gridJobs{}, fmt.Errorf("bench: no chaos soak driver for kernel %q", params)
		}
		return chaosGrid(o, params, seed), nil
	default:
		return gridJobs{}, fmt.Errorf("bench: unknown grid %q", name)
	}
}

func parseArchSize(params string) (cycles.Arch, uint64, error) {
	i := strings.IndexByte(params, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("bench: fig5 grid wants arch:bytes, got %q", params)
	}
	arch, err := parseArch(params[:i])
	if err != nil {
		return 0, 0, err
	}
	size, err := strconv.ParseUint(params[i+1:], 10, 64)
	if err != nil || size == 0 {
		return 0, 0, fmt.Errorf("bench: bad fig5 size %q", params[i+1:])
	}
	return arch, size, nil
}

// mapGrid executes the named grid and returns its cells in index order.
// With a fleet attached (Options.FleetRun), cells are sharded across
// worker subprocesses and merged from their result frames; otherwise
// they fan out across the in-process pool exactly as before.
func (o Options) mapGrid(name string, seed uint64) []cell {
	g, err := gridFor(name, seed, o)
	if err != nil {
		// Grid names originate in this package; an unknown one is a
		// programming error, not an input error.
		panic(err)
	}
	if o.FleetRun != nil {
		return o.FleetRun.mapGrid(o, name, seed, g.n)
	}
	jobs := make([]func() cell, g.n)
	for i := range jobs {
		i := i
		jobs[i] = func() cell { return g.job(i) }
	}
	return par.Map(o.workers(), jobs)
}

// specOptions reconstructs the worker-side Options a cell's computation
// depends on from its wire spec: the run-wide bits travel in the spec's
// flags, and the observability sinks are stand-ins whose only role is
// to enable per-cell sink creation. base carries coordinator-side state
// (Ctx) that is legitimate to inherit locally.
func specOptions(base Options, spec fleet.CellSpec) Options {
	o := Options{
		Quick:  spec.Quick(),
		Kernel: spec.Kernel,
		Ctx:    base.Ctx,
	}
	if spec.Metrics() {
		o.Metrics = metrics.New()
	}
	if spec.Trace() {
		o.Trace = metrics.NewTrace()
	}
	if spec.Record() {
		o.TraceDump = "recorded"
	}
	return o
}

// specFlags projects the run-wide option bits into a cell spec's flags.
func specFlags(o Options) uint32 {
	var f uint32
	if o.Quick {
		f |= fleet.FlagQuick
	}
	if o.Metrics.Enabled() {
		f |= fleet.FlagMetrics
	}
	if o.Trace.Enabled() {
		f |= fleet.FlagTrace
	}
	if o.TraceDump != "" {
		f |= fleet.FlagRecord
	}
	return f
}

// Executor returns the fleet cell executor over this package's grid
// catalog: the function `vdom-bench worker` serves, and the one the
// coordinator falls back to in degraded mode. base supplies
// coordinator-local state (Ctx); everything else comes from the spec.
func Executor(base Options) fleet.Exec {
	return func(spec fleet.CellSpec) (fleet.CellResult, error) {
		o := specOptions(base, spec)
		g, err := gridFor(spec.Grid, spec.Seed, o)
		if err != nil {
			return fleet.CellResult{}, err
		}
		if spec.Index < 0 || spec.Index >= g.n {
			return fleet.CellResult{}, fmt.Errorf("bench: cell index %d out of range for grid %s (%d cells)", spec.Index, spec.Grid, g.n)
		}
		c := g.job(spec.Index)
		if c.fail != "" {
			return fleet.CellResult{}, fmt.Errorf("bench: %s", c.fail)
		}
		res := fleet.CellResult{Text: c.text, Total: c.total, Aux: c.aux}
		if c.reg != nil {
			var buf bytes.Buffer
			if err := c.reg.WriteJSON(&buf); err != nil {
				return fleet.CellResult{}, err
			}
			res.Metrics = buf.Bytes()
		}
		if c.tr != nil {
			var buf bytes.Buffer
			if err := c.tr.WriteJSON(&buf); err != nil {
				return fleet.CellResult{}, err
			}
			res.Trace = buf.Bytes()
		}
		return res, nil
	}
}

// FleetRun attaches a worker fleet to a bench run: configuration for
// fleet.Run plus the aggregated report across every grid the run
// distributes. One FleetRun serves a whole vdom-bench invocation; each
// distributable grid becomes one fleet.Run generation (spawn, shard,
// merge, drain).
type FleetRun struct {
	// Workers is the fleet width.
	Workers int
	// Spawn brings up one worker subprocess; nil degrades every grid to
	// the in-process pool (reported, not fatal).
	Spawn fleet.Spawn
	// Faults seeds the transport-fault injector (CI chaos smoke).
	Faults fleet.FaultConfig
	// CellTimeout, MaxAttempts: see fleet.Config.
	CellTimeout time.Duration
	MaxAttempts int
	// KillAfter arms the kill-one-worker-mid-cell chaos hook on the
	// first grid large enough to trigger it; it fires at most once per
	// FleetRun.
	KillAfter int
	// Logf receives coordinator progress lines (nil silences them).
	Logf func(format string, args ...any)

	mu     sync.Mutex
	report fleet.Report
	fired  bool
}

// Report returns the aggregated fleet report across all grids run so
// far.
func (fr *FleetRun) Report() *fleet.Report {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	rep := fr.report
	rep.Workers = fr.Workers
	rep.Quarantined = append([]fleet.QuarantinedCell(nil), fr.report.Quarantined...)
	return &rep
}

// mapGrid distributes one grid across the fleet and decodes the result
// frames back into cells.
func (fr *FleetRun) mapGrid(o Options, name string, seed uint64, n int) []cell {
	flags := specFlags(o)
	specs := make([]fleet.CellSpec, n)
	for i := range specs {
		specs[i] = fleet.CellSpec{
			Grid: name, Index: i, Seed: seed,
			Kernel: o.Kernel, Flags: flags,
		}
	}
	fr.mu.Lock()
	kill := 0
	if fr.KillAfter > 0 && !fr.fired && n > fr.KillAfter {
		kill = fr.KillAfter
		fr.fired = true
	}
	fr.mu.Unlock()
	// The degraded/quarantine-fill executor strips FleetRun so a local
	// fill can never recurse into another fleet.
	local := o
	local.FleetRun = nil
	results, rep := fleet.Run(fleet.Config{
		Workers:       fr.Workers,
		Spawn:         fr.Spawn,
		Exec:          Executor(local),
		Faults:        fr.Faults,
		CellTimeout:   fr.CellTimeout,
		MaxAttempts:   fr.MaxAttempts,
		LocalParallel: local.workers(),
		KillAfter:     kill,
		Logf:          fr.Logf,
	}, specs)
	fr.merge(rep)
	cells := make([]cell, len(results))
	for i, r := range results {
		cells[i] = decodeCell(r)
	}
	return cells
}

func (fr *FleetRun) merge(rep *fleet.Report) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	r := &fr.report
	r.Cells += rep.Cells
	r.Degraded = r.Degraded || rep.Degraded
	r.Recoveries += rep.Recoveries
	r.WorkerDeaths += rep.WorkerDeaths
	r.Respawns += rep.Respawns
	r.Timeouts += rep.Timeouts
	for k, v := range rep.TransportErrors {
		if r.TransportErrors == nil {
			r.TransportErrors = map[string]uint64{}
		}
		r.TransportErrors[k] += v
	}
	for k, v := range rep.FaultsInjected {
		if r.FaultsInjected == nil {
			r.FaultsInjected = map[string]uint64{}
		}
		r.FaultsInjected[k] += v
	}
	r.Quarantined = append(r.Quarantined, rep.Quarantined...)
}

// decodeCell reconstructs a cell from its result frame. The rendered
// text and aux bytes pass through verbatim; metrics and trace JSON are
// decoded into mergeable form. A decode failure (impossible for a
// digest-verified frame from a matching worker) degrades to a failed
// cell rather than a panic.
func decodeCell(r fleet.CellResult) cell {
	c := cell{text: r.Text, total: r.Total, aux: r.Aux, fail: r.Err}
	if len(r.Metrics) > 0 {
		snap, err := metrics.DecodeSnapshot(r.Metrics)
		if err != nil {
			c.fail = fmt.Sprintf("decoding metrics: %v", err)
			return c
		}
		c.snap = snap
	}
	if len(r.Trace) > 0 {
		tr, err := metrics.DecodeTraceJSON(r.Trace)
		if err != nil {
			c.fail = fmt.Sprintf("decoding trace: %v", err)
			return c
		}
		c.tr = tr
	}
	return c
}

// ---- Grid builders -------------------------------------------------

// table4Row is one row of Table 4: a (system, pattern) pair swept
// across the vdom-count columns.
type table4Row struct {
	label string
	arch  cycles.Arch
	sys   workload.PatternSystem
	pat   workload.Pattern
}

var table4Rows = []table4Row{
	{"VDom X86f seq", cycles.X86, workload.PatternVDomFast, workload.Sequential},
	{"VDom X86f trig", cycles.X86, workload.PatternVDomFast, workload.SwitchTriggering},
	{"VDom X86s seq", cycles.X86, workload.PatternVDomSecure, workload.Sequential},
	{"VDom X86s trig", cycles.X86, workload.PatternVDomSecure, workload.SwitchTriggering},
	{"VDom X86e seq", cycles.X86, workload.PatternVDomEvict, workload.Sequential},
	{"libmpk seq", cycles.X86, workload.PatternLibmpk, workload.Sequential},
	{"EPK seq", cycles.X86, workload.PatternEPK, workload.Sequential},
	{"EPK trig", cycles.X86, workload.PatternEPK, workload.SwitchTriggering},
	{"VDom ARM seq", cycles.ARM, workload.PatternVDomSecure, workload.Sequential},
	{"VDom ARM trig", cycles.ARM, workload.PatternVDomSecure, workload.SwitchTriggering},
	{"VDom ARMe seq", cycles.ARM, workload.PatternVDomEvict, workload.Sequential},
}

func table4Grid(o Options) gridJobs {
	nc := len(table4Counts)
	return gridJobs{
		n: len(table4Rows) * nc,
		job: func(i int) cell {
			s, n := table4Rows[i/nc], table4Counts[i%nc]
			reg, tr := o.newCellSinks()
			r := workload.RunPattern(workload.PatternConfig{
				Arch: s.arch, System: s.sys, Pattern: s.pat, NumVdoms: n,
				Rounds:  o.patternRounds(),
				Metrics: reg, Trace: tr,
			})
			return cell{text: f0(r.AvgCycles), total: r.TotalCycles, reg: reg, tr: tr}
		},
	}
}

var (
	table5Counts = []int{2, 4, 8, 16, 32}
	table5Arches = []cycles.Arch{cycles.X86, cycles.ARM}
)

func table5Grid(o Options) gridJobs {
	return gridJobs{
		n: len(table5Arches) * len(table5Counts),
		job: func(i int) cell {
			arch, n := table5Arches[i/len(table5Counts)], table5Counts[i%len(table5Counts)]
			ov, ok := workload.MemSyncOverhead(arch, n)
			if !ok {
				return cell{text: "undefined"}
			}
			return cell{text: f1(ov * 100)}
		},
	}
}

func matrixGrid(o Options) gridJobs {
	names := backend.Names()
	na := len(matrixArches)
	return gridJobs{
		n: len(names) * na,
		job: func(i int) cell {
			name, arch := names[i/na], matrixArches[i%na]
			sys, ok := matrixSystem(name)
			if !ok {
				return cell{text: "NA"}
			}
			reg, tr := o.newCellSinks()
			r := workload.RunPattern(workload.PatternConfig{
				Arch: arch, System: sys, Pattern: workload.SwitchTriggering,
				NumVdoms: matrixVdoms, Rounds: o.patternRounds(),
				Metrics: reg, Trace: tr,
			})
			return cell{text: f0(r.AvgCycles), total: r.TotalCycles, reg: reg, tr: tr}
		},
	}
}

// fig1Clients is Figure 1's client-count axis.
var fig1Clients = []int{4, 8, 12, 16, 20, 24, 28, 32}

func fig1Grid(o Options) gridJobs {
	return gridJobs{
		n: len(fig1Clients),
		job: func(i int) cell {
			clients := fig1Clients[i]
			mk := func(sys workload.System) workload.HttpdResult {
				return workload.RunHttpd(workload.HttpdConfig{
					Arch: cycles.X86, System: sys, Clients: clients,
					RequestsPerClient: o.httpdRequests(), FileBytes: 16384, Workers: 25,
				})
			}
			base := mk(workload.Original)
			lm := mk(workload.Libmpk)
			ov := float64(lm.Makespan)/float64(base.Makespan) - 1

			// Attribute the overhead to the Figure 1 buckets by each
			// bucket's share of the extra cycles.
			st := lm.LibmpkStats
			bw := float64(st.BusyWaitCycles)
			sd := float64(st.ShootdownCycles)
			mg := float64(st.MgmtCycles)
			sum := bw + sd + mg
			if sum == 0 {
				sum = 1
			}
			row := []string{fmt.Sprint(clients), pct(ov), pct(ov * bw / sum), pct(ov * sd / sum), pct(ov * mg / sum)}
			return cell{text: strings.Join(row, rowSep)}
		},
	}
}

// fig5Clients is Figure 5's client-count axis per architecture.
func fig5Clients(arch cycles.Arch) []int {
	if arch == cycles.ARM {
		return []int{4, 8, 12, 16, 20, 24}
	}
	return []int{4, 12, 20, 28, 36, 44, 48}
}

// fig5Sizes is Figure 5's transferred-file-size axis.
var fig5Sizes = []uint64{1 << 10, 64 << 10, 128 << 10}

func fig5Grid(o Options, arch cycles.Arch, size uint64) gridJobs {
	clients := fig5Clients(arch)
	return gridJobs{
		n: len(clients) * len(fig5Systems),
		job: func(i int) cell {
			c, sys := clients[i/len(fig5Systems)], fig5Systems[i%len(fig5Systems)]
			r := workload.RunHttpd(workload.HttpdConfig{
				Arch: arch, System: sys, Clients: c,
				RequestsPerClient: o.httpdRequests(), FileBytes: size,
			})
			return cell{text: f0(r.ReqPerSec)}
		},
	}
}

// fig6Systems are Figure 6's compared systems.
var fig6Systems = []workload.System{workload.Original, workload.VDom, workload.EPK, workload.Libmpk}

// fig6Clients is Figure 6's client-count axis per architecture.
func fig6Clients(arch cycles.Arch) []int {
	if arch == cycles.ARM {
		return []int{4, 8, 12, 16, 20, 24}
	}
	return []int{4, 8, 12, 16, 24, 32, 40, 48}
}

func fig6Grid(o Options, arch cycles.Arch) gridJobs {
	clients := fig6Clients(arch)
	return gridJobs{
		n: len(clients) * len(fig6Systems),
		job: func(i int) cell {
			c, sys := clients[i/len(fig6Systems)], fig6Systems[i%len(fig6Systems)]
			r := workload.RunMySQL(workload.MySQLConfig{
				Arch: arch, System: sys, Clients: c,
				QueriesPerClient: o.mysqlQueries(),
			})
			if !r.Supported {
				return cell{text: "DNF"}
			}
			return cell{text: f0(r.QueriesPerS)}
		},
	}
}

// fig7Variant is one line of Figure 7.
type fig7Variant struct {
	name string
	cfg  func(arch cycles.Arch, threads int) workload.PMOConfig
}

var fig7Variants = []fig7Variant{
	{"lowerbound", func(a cycles.Arch, th int) workload.PMOConfig {
		return workload.PMOConfig{Arch: a, System: workload.VDomLowerbound, Threads: th}
	}},
	{"EPK", func(a cycles.Arch, th int) workload.PMOConfig {
		return workload.PMOConfig{Arch: a, System: workload.EPK, Threads: th}
	}},
	{"libmpk 4KB pages", func(a cycles.Arch, th int) workload.PMOConfig {
		return workload.PMOConfig{Arch: a, System: workload.Libmpk, Threads: th}
	}},
	{"libmpk 2MB huge pages", func(a cycles.Arch, th int) workload.PMOConfig {
		return workload.PMOConfig{Arch: a, System: workload.Libmpk, LibmpkMode: 1, Threads: th}
	}},
	{"VDS switch", func(a cycles.Arch, th int) workload.PMOConfig {
		return workload.PMOConfig{Arch: a, System: workload.VDom, Mode: workload.PMOSwitch, Threads: th}
	}},
	{"VDom eviction", func(a cycles.Arch, th int) workload.PMOConfig {
		return workload.PMOConfig{Arch: a, System: workload.VDom, Mode: workload.PMOEvict, Threads: th}
	}},
}

// fig7Threads is Figure 7's thread-count axis per architecture.
func fig7Threads(arch cycles.Arch) []int {
	if arch == cycles.ARM {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8}
}

func fig7Grid(o Options, arch cycles.Arch) gridJobs {
	threads := fig7Threads(arch)
	return gridJobs{
		n: len(fig7Variants) * len(threads),
		job: func(i int) cell {
			v, th := fig7Variants[i/len(threads)], threads[i%len(threads)]
			cfg := v.cfg(arch, th)
			cfg.OpsPerThread = o.pmoOps()
			base := cfg
			base.System = workload.Original
			b := workload.RunPMO(base)
			r := workload.RunPMO(cfg)
			return cell{text: pct(float64(r.Makespan)/float64(b.Makespan) - 1)}
		},
	}
}

// ubCase is one UnixBench run: an architecture and a suite.
type ubCase struct {
	arch     cycles.Arch
	parallel bool
}

var ubCases = []ubCase{
	{cycles.X86, false}, {cycles.X86, true},
	{cycles.ARM, false}, {cycles.ARM, true},
}

func unixBenchGrid(o Options) gridJobs {
	return gridJobs{
		n: len(ubCases),
		job: func(i int) cell {
			c := ubCases[i]
			suite := "single-thread"
			if c.parallel {
				suite = "parallel"
			}
			r := workload.RunUnixBench(c.arch, c.parallel)
			worst := r.Scores[0]
			for _, s := range r.Scores {
				if s.Relative < worst.Relative {
					worst = s
				}
			}
			row := []string{c.arch.String(), suite, f1(r.Index) + "%",
				fmt.Sprintf("%s (%.1f%%)", worst.Test, worst.Relative)}
			return cell{text: strings.Join(row, rowSep)}
		},
	}
}

// chaosWire is one soak shard's outcome as it travels in a chaos cell's
// aux payload: everything the coordinator's aggregation, rendering, and
// soak report need, with the violation listings pre-rendered and the
// minimal replayable fail trace as encoded vdom-trace bytes. The
// in-process path produces the identical struct, so both paths
// aggregate from the same representation.
type chaosWire struct {
	Ops           int               `json:"ops"`
	Cycles        uint64            `json:"cycles"`
	Injected      map[string]uint64 `json:"injected,omitempty"`
	Recovered     map[string]uint64 `json:"recovered,omitempty"`
	Violations    []string          `json:"violations,omitempty"`
	Unrecovered   []string          `json:"unrecovered,omitempty"`
	Audits        int               `json:"audits"`
	ASIDRollovers uint64            `json:"asidRollovers"`
	TraceEvents   int               `json:"traceEvents,omitempty"`
	FailTrace     []byte            `json:"failTrace,omitempty"`
}

func decodeChaosWire(aux []byte) (chaosWire, error) {
	var w chaosWire
	if err := json.Unmarshal(aux, &w); err != nil {
		return w, fmt.Errorf("bench: decoding chaos shard: %w", err)
	}
	return w, nil
}

// chaosGrid is the chaos soak's shard fan-out: chaosShards independent
// machines, each soaked under seed+i, each shipping its outcome as a
// chaosWire aux payload.
func chaosGrid(o Options, kern string, seed uint64) gridJobs {
	totalOps := o.chaosSoakOps()
	ctx := o.ctx()
	return gridJobs{
		n: chaosShards,
		job: func(i int) cell {
			ops := totalOps / chaosShards
			if i < totalOps%chaosShards {
				ops++
			}
			reg, tr := o.newCellSinks()
			fault := chaos.Config{
				Seed:           seed + uint64(i),
				DropIPI:        0.05,
				DelayIPI:       0.05,
				StaleTLB:       0.03,
				ASIDExhaustion: 0.02,
				ASIDLimit:      24,
				VDSAllocFail:   0.10,
				PdomExhaustion: 0.05,
				SpuriousFault:  0.02,
			}
			if kern == "dpti" {
				// DPTI has no manager-level hooks; zero the faults that
				// would never draw so the injected counters stay honest.
				fault.VDSAllocFail = 0
				fault.PdomExhaustion = 0
			}
			s := chaos.StartSoak(chaos.SoakConfig{
				Chaos:   fault,
				Ops:     ops,
				Kernel:  kern,
				Metrics: reg,
				Trace:   tr,
				Record:  o.TraceDump != "",
			})
			// Step with a periodic wall-clock escape hatch: a -timeout
			// cancels the soak between ops instead of hanging the job.
			for {
				if s.NextOp()%256 == 0 && ctx.Err() != nil {
					return cell{fail: fmt.Sprintf("chaos shard %d cancelled at op %d: %v", i, s.NextOp(), ctx.Err())}
				}
				if !s.Step() {
					break
				}
			}
			res := s.Finish()
			w := chaosWire{
				Ops:           res.Ops,
				Cycles:        uint64(res.Cycles),
				Injected:      res.Injected,
				Recovered:     res.Recovered,
				Unrecovered:   res.Unrecovered,
				Audits:        res.Audits,
				ASIDRollovers: res.ASIDRollovers,
			}
			for _, v := range res.Violations {
				w.Violations = append(w.Violations, fmt.Sprint(v))
			}
			if res.Trace != nil {
				w.TraceEvents = len(res.Trace.Events)
			}
			if ft := res.FailTrace(); ft != nil {
				w.FailTrace = replay.Encode(ft)
			}
			aux, err := json.Marshal(w)
			if err != nil {
				return cell{fail: fmt.Sprintf("chaos shard %d: encoding: %v", i, err)}
			}
			return cell{total: uint64(res.Cycles), reg: reg, tr: tr, aux: aux}
		},
	}
}
