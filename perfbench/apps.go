package main

import (
	"fmt"
	"math"

	"vdom/internal/bench"
	"vdom/internal/cycles"
	"vdom/internal/libmpk"
	"vdom/internal/metrics"
	"vdom/internal/workload"
)

var appsWorkload = workloadDef{
	name:    "apps",
	opsUnit: "simulated requests + queries + PMO ops per host second",
	build:   buildApps,
	layers:  appsLayers,
}

// appRun is one application-model call: exactly one config is set.
type appRun struct {
	httpd *workload.HttpdConfig
	mysql *workload.MySQLConfig
	pmo   *workload.PMOConfig
}

// appCell is one generated apps cell: a single model call, or a paper
// headline's baseline and protected calls.
type appCell struct {
	name  string
	runs  []appRun
	claim string // the bench.PaperHeadlines entry a headline cell reproduces
}

// genApps generates the apps workload: the Figure 5/6/7 application
// models. Why this workload: the full experiment run spends its host
// time here — sim process handoff (channel ping-pong and the event
// heap), libmpk busy-wait spins, and kernel.Sched — while the hw, tlb
// and pagetable hot paths do little. httpd runs all five systems on X86
// and ARM, at an uncontended client count and at one that exhausts the
// X86 protection keys (forcing libmpk busy-waits; ARM's DACR domains do
// not exhaust at Figure 5's largest count). MySQL runs the four systems
// it supports on both architectures, PMO the VDS-switch, eviction and
// libmpk variants with their baseline, and the six PaperHeadlines
// application cells run with their Original baselines. The shape of the
// load is fixed so every seed does the same amount of work; the seed
// draws each model's simulation seed, which moves event interleavings,
// busy-wait counts and the simulated outputs.
func genApps(seed uint64, tiny bool) []appCell {
	r := newRNG(seed, "apps")
	var cells []appCell
	httpd := func(arch cycles.Arch, sys workload.System, clients, reqs int, bytes uint64) *workload.HttpdConfig {
		return &workload.HttpdConfig{Arch: arch, System: sys, Clients: clients, RequestsPerClient: reqs,
			FileBytes: bytes, Seed: r.next()}
	}
	mysql := func(arch cycles.Arch, sys workload.System, clients, queries int) *workload.MySQLConfig {
		return &workload.MySQLConfig{Arch: arch, System: sys, Clients: clients, QueriesPerClient: queries, Seed: r.next()}
	}
	pmo := func(sys workload.System, mode workload.PMOMode, lm libmpk.PageMode, threads, ops int) *workload.PMOConfig {
		return &workload.PMOConfig{Arch: cycles.X86, System: sys, Mode: mode, LibmpkMode: lm,
			Threads: threads, OpsPerThread: ops, Seed: r.next()}
	}
	single := func(name string, run appRun) { cells = append(cells, appCell{name: name, runs: []appRun{run}}) }

	// Sizes follow vdom-bench -quick: 8 requests, 6 queries, 600 PMO ops.
	reqs, queries, ops, low, high := 8, 6, 600, 8, 24
	systems := []workload.System{workload.Original, workload.VDom, workload.EPK, workload.Libmpk, workload.VDomLowerbound}
	archs := []cycles.Arch{cycles.X86, cycles.ARM}
	mysqlSystems := []workload.System{workload.Original, workload.VDom, workload.EPK, workload.VDomLowerbound}
	if tiny {
		reqs, queries, ops, low, high = 2, 2, 50, 4, 4
		systems = []workload.System{workload.Original, workload.VDom, workload.Libmpk}
		archs = archs[:1]
		mysqlSystems = mysqlSystems[:2]
	}
	for _, arch := range archs {
		for _, sys := range systems {
			single(fmt.Sprintf("httpd/%v/%v/%dc", arch, sys, low), appRun{httpd: httpd(arch, sys, low, reqs, 1<<10)})
			if high != low {
				single(fmt.Sprintf("httpd/%v/%v/%dc", arch, sys, high), appRun{httpd: httpd(arch, sys, high, reqs, 16<<10)})
			}
		}
		for _, sys := range mysqlSystems {
			single(fmt.Sprintf("mysql/%v/%v", arch, sys), appRun{mysql: mysql(arch, sys, high, queries)})
		}
	}
	single("pmo/original", appRun{pmo: pmo(workload.Original, 0, 0, 4, ops)})
	single("pmo/switch", appRun{pmo: pmo(workload.VDom, workload.PMOSwitch, 0, 4, ops)})
	single("pmo/evict", appRun{pmo: pmo(workload.VDom, workload.PMOEvict, 0, 4, ops)})
	single("pmo/libmpk-4k", appRun{pmo: pmo(workload.Libmpk, workload.PMOSwitch, libmpk.Page4K, 4, ops)})

	// The application rows of `vdom-bench compare`, each with its
	// Original baseline.
	headClients := 24
	if tiny {
		headClients = 4
	}
	head := func(claim string, base, prot appRun) {
		cells = append(cells, appCell{name: "headline/" + claim, runs: []appRun{base, prot}, claim: claim})
	}
	head("httpd VDom overhead X86 128KB",
		appRun{httpd: httpd(cycles.X86, workload.Original, headClients, reqs, 128<<10)},
		appRun{httpd: httpd(cycles.X86, workload.VDom, headClients, reqs, 128<<10)})
	for _, h := range []struct {
		claim string
		sys   workload.System
	}{{"MySQL VDom overhead X86", workload.VDom}, {"MySQL EPK overhead X86", workload.EPK}} {
		head(h.claim, appRun{mysql: mysql(cycles.X86, workload.Original, headClients, queries)},
			appRun{mysql: mysql(cycles.X86, h.sys, headClients, queries)})
	}
	for _, h := range []struct {
		claim   string
		sys     workload.System
		mode    workload.PMOMode
		lm      libmpk.PageMode
		threads int
	}{
		{"PMO VDS switch X86", workload.VDom, workload.PMOSwitch, libmpk.Page4K, 4},
		{"PMO eviction X86", workload.VDom, workload.PMOEvict, libmpk.Page4K, 4},
		{"PMO libmpk 2MB 8 threads", workload.Libmpk, workload.PMOSwitch, libmpk.Huge2M, 8},
	} {
		head(h.claim, appRun{pmo: pmo(workload.Original, 0, 0, h.threads, ops)},
			appRun{pmo: pmo(h.sys, h.mode, h.lm, h.threads, ops)})
	}
	return cells
}

// buildApps is the apps set-up: generate the cells and warm up by
// running the tiny variant once.
func buildApps(e *env) (*instance, error) {
	gen := genApps(e.seed, e.tiny)
	paper := map[string]float64{}
	for _, h := range bench.PaperHeadlines {
		paper[h.Name] = h.Value
	}
	inst := &instance{}
	devs := map[string]float64{}
	for _, c := range gen {
		c := c
		if c.claim != "" {
			if _, ok := paper[c.claim]; !ok {
				return nil, fmt.Errorf("no paper headline %q", c.claim)
			}
		}
		inst.cells = append(inst.cells, cell{name: c.name, run: func(e *env) (cellOut, error) {
			var out cellOut
			spans := make([]uint64, 0, len(c.runs))
			for _, run := range c.runs {
				res, err := run.withRound(e.round).do(e)
				if err != nil {
					return cellOut{}, err
				}
				out.ops += res.ops
				out.digest = digestOf(out.digest, res.digest)
				spans = append(spans, res.makespan)
			}
			if c.claim != "" && e.round == 0 {
				ours := (float64(spans[1])/float64(spans[0]) - 1) * 100
				devs[c.claim] = math.Abs(ours/paper[c.claim] - 1)
			}
			return out, nil
		}})
	}
	// paperDev is over round 0, the inputs every run of a seed shares.
	inst.paperDev = func() float64 {
		var sum float64
		for _, d := range devs {
			sum += d
		}
		return 100 * sum / float64(max(len(devs), 1))
	}
	if !e.tiny {
		for _, c := range genApps(e.seed, true) {
			for _, run := range c.runs {
				if _, err := run.do(&env{}); err != nil {
					return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
				}
			}
		}
	}
	return inst, nil
}

// withRound returns the call with its simulation seed drawn for round r.
func (a appRun) withRound(r int) appRun {
	switch {
	case a.httpd != nil:
		c := *a.httpd
		c.Seed = roundSeed(c.Seed, r)
		a.httpd = &c
	case a.mysql != nil:
		c := *a.mysql
		c.Seed = roundSeed(c.Seed, r)
		a.mysql = &c
	default:
		c := *a.pmo
		c.Seed = roundSeed(c.Seed, r)
		a.pmo = &c
	}
	return a
}

// appResult is what one model call contributes to its cell.
type appResult struct {
	ops      uint64
	makespan uint64
	digest   uint64
}

// do runs the model call, checks its output, and digests it.
func (a appRun) do(e *env) (appResult, error) {
	switch {
	case a.httpd != nil:
		cfg := *a.httpd
		var sim *metrics.Trace
		if e.tr != nil {
			sim = metrics.NewTrace()
			cfg.Trace = sim
		}
		e.tr.begin("workload.httpd", "")
		r := workload.RunHttpd(cfg)
		d := e.tr.end()
		if sim != nil {
			e.tr.count("sim.events", float64(sim.Len()))
			e.tr.count("sim.httpd_ns", float64(d))
		}
		e.tr.count("libmpk.busy_waits", float64(r.LibmpkStats.BusyWaits))
		if want := cfg.Clients * cfg.RequestsPerClient; r.Requests != want || r.Makespan == 0 {
			return appResult{}, fmt.Errorf("httpd served %d requests in %d cycles, want %d requests", r.Requests, r.Makespan, want)
		}
		return appResult{ops: uint64(r.Requests), makespan: uint64(r.Makespan),
			digest: digestOf(r.Requests, uint64(r.Makespan), r.ReqPerSec, r.LibmpkStats, r.VDomStats, r.WorkerBusyCycles)}, nil
	case a.mysql != nil:
		e.tr.begin("workload.mysql", "")
		r := workload.RunMySQL(*a.mysql)
		e.tr.end()
		e.tr.count("libmpk.busy_waits", float64(r.LibmpkStats.BusyWaits))
		if want := a.mysql.Clients * a.mysql.QueriesPerClient; !r.Supported || r.Queries != want || r.Makespan == 0 {
			return appResult{}, fmt.Errorf("mysql ran %d queries in %d cycles (supported %v), want %d", r.Queries, r.Makespan, r.Supported, want)
		}
		return appResult{ops: uint64(r.Queries), makespan: uint64(r.Makespan),
			digest: digestOf(r.Queries, uint64(r.Makespan), r.QueriesPerS, r.VDomStats, r.LibmpkStats)}, nil
	default:
		e.tr.begin("workload.pmo", "")
		r := workload.RunPMO(*a.pmo)
		e.tr.end()
		if want := a.pmo.Threads * a.pmo.OpsPerThread; r.Ops != want || r.Makespan == 0 {
			return appResult{}, fmt.Errorf("pmo ran %d ops in %d cycles, want %d", r.Ops, r.Makespan, want)
		}
		return appResult{ops: uint64(r.Ops), makespan: uint64(r.Makespan),
			digest: digestOf(r.Ops, uint64(r.Makespan), r.VDomStats)}, nil
	}
}

func appsLayers(t *tracer, m map[string]float64) {
	m["workload.httpd_ms"] = t.spanMS("workload.httpd")
	m["workload.mysql_ms"] = t.spanMS("workload.mysql")
	m["workload.pmo_ms"] = t.spanMS("workload.pmo")
	m["sim.events"] = t.counts["sim.events"]
	if ev := t.counts["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = t.counts["sim.httpd_ns"] / ev
	}
	m["libmpk.busy_waits"] = t.counts["libmpk.busy_waits"]
}
