package bench

import (
	"fmt"

	"vdom/internal/backend"
	"vdom/internal/chaos"
	"vdom/internal/cycles"
	"vdom/internal/par"
	"vdom/internal/workload"
)

// The grid catalog. Every experiment fan-out is a grid: a deterministic
// function from cell index to one cell, instantiated against concrete
// options by one of the builders below. Options.mapGrid runs a grid's
// cells across the in-process pool and returns them in index order, so
// the collected output is byte-identical at every -parallel width.
// Table 3 is absent by design: its fan-out lives inside
// internal/workload.

// gridJobs is one grid instantiated against concrete options: its cell
// count and its index-to-cell function.
type gridJobs struct {
	n   int
	job func(i int) cell
}

// mapGrid executes the grid across the in-process pool and returns its
// cells in index order.
func (o Options) mapGrid(g gridJobs) []cell {
	jobs := make([]func() cell, g.n)
	for i := range jobs {
		jobs[i] = func() cell { return g.job(i) }
	}
	return par.Map(o.workers(), jobs)
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
			return cell{row: []string{fmt.Sprint(clients), pct(ov), pct(ov * bw / sum), pct(ov * sd / sum), pct(ov * mg / sum)}}
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
			return cell{row: []string{c.arch.String(), suite, f1(r.Index) + "%",
				fmt.Sprintf("%s (%.1f%%)", worst.Test, worst.Relative)}}
		},
	}
}

// chaosGrid is the chaos soak's shard fan-out: chaosShards independent
// machines, each soaked under seed+i, each returning its SoakResult.
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
					return cell{err: fmt.Errorf("chaos shard %d cancelled at op %d: %w", i, s.NextOp(), ctx.Err())}
				}
				if !s.Step() {
					break
				}
			}
			res := s.Finish()
			return cell{total: uint64(res.Cycles), reg: reg, tr: tr, soak: res}
		},
	}
}
