package main

// metricDef is one entry of the metric catalogue. BENCHMARK.json at the
// repository root lists the same metrics; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// owner is the workload whose cells measure a per-layer metric; a
	// traced run of another workload takes it from a tiny probe of the
	// owner. Empty means the traced run itself (its CPU profile, or the
	// tracing overhead).
	owner string
}

// endToEnd are the metrics a user of the simulator sees; every workload
// reports them with --trace 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cell_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "cell_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// perLayer are the metrics of single layers; every workload reports them
// with --trace 1. Counts are simulated and taken from the first round,
// so they repeat exactly across runs of one seed.
var perLayer = []metricDef{
	// apps
	{Name: "workload.httpd_ms", Unit: "ms", Better: "lower", owner: "apps"},
	{Name: "workload.mysql_ms", Unit: "ms", Better: "lower", owner: "apps"},
	{Name: "workload.pmo_ms", Unit: "ms", Better: "lower", owner: "apps"},
	{Name: "sim.events", Unit: "count", Better: "lower", owner: "apps"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", owner: "apps"},
	{Name: "libmpk.busy_waits", Unit: "count", Better: "lower", owner: "apps"},
	// domain-access
	{Name: "vdom.boot_us", Unit: "us", Better: "lower", owner: "domain-access"},
	{Name: "mm.mmap_us", Unit: "us", Better: "lower", owner: "domain-access"},
	{Name: "core.protect_us", Unit: "us", Better: "lower", owner: "domain-access"},
	{Name: "libmpk.protect_us", Unit: "us", Better: "lower", owner: "domain-access"},
	{Name: "epk.protect_us", Unit: "us", Better: "lower", owner: "domain-access"},
	{Name: "dpti.protect_us", Unit: "us", Better: "lower", owner: "domain-access"},
	{Name: "core.activate_ns", Unit: "ns", Better: "lower", owner: "domain-access"},
	{Name: "libmpk.activate_ns", Unit: "ns", Better: "lower", owner: "domain-access"},
	{Name: "epk.activate_ns", Unit: "ns", Better: "lower", owner: "domain-access"},
	{Name: "dpti.activate_ns", Unit: "ns", Better: "lower", owner: "domain-access"},
	{Name: "hw.access_ns", Unit: "ns", Better: "lower", owner: "domain-access"},
	{Name: "tlb.hit_ratio", Unit: "ratio", Better: "higher", owner: "domain-access"},
	{Name: "hw.walk_cache_hit_ratio", Unit: "ratio", Better: "higher", owner: "domain-access"},
	{Name: "core.evictions", Unit: "count", Better: "lower", owner: "domain-access"},
	{Name: "core.vds_switches", Unit: "count", Better: "lower", owner: "domain-access"},
	// domain-churn
	{Name: "scenario.compile_ms", Unit: "ms", Better: "lower", owner: "domain-churn"},
	{Name: "scenario.cell_ms", Unit: "ms", Better: "lower", owner: "domain-churn"},
	{Name: "pagetable.pte_writes", Unit: "count", Better: "lower", owner: "domain-churn"},
	{Name: "tlb.flushes", Unit: "count", Better: "lower", owner: "domain-churn"},
	{Name: "replay.encode_mbps", Unit: "MB/s", Better: "higher", owner: "domain-churn"},
	{Name: "replay.decode_mbps", Unit: "MB/s", Better: "higher", owner: "domain-churn"},
	{Name: "replay.verify_ms", Unit: "ms", Better: "lower", owner: "domain-churn"},
	{Name: "replay.bytes_per_op", Unit: "B", Better: "lower", owner: "domain-churn"},
	{Name: "snapshot.capture_ms", Unit: "ms", Better: "lower", owner: "domain-churn"},
	{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower", owner: "domain-churn"},
	{Name: "snapshot.encode_mbps", Unit: "MB/s", Better: "higher", owner: "domain-churn"},
	{Name: "snapshot.decode_mbps", Unit: "MB/s", Better: "higher", owner: "domain-churn"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower", owner: "domain-churn"},
	// the traced run's CPU profile
	{Name: "sim.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "kernel.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "libmpk.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "core.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "epk.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "dpti.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "hw.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "tlb.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "pagetable.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "mm.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "replay.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "snapshot.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "scenario.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "workload.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "metrics.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "other.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "runtime.gc_frac", Unit: "fraction", Better: "lower"},
	{Name: "runtime.sched_frac", Unit: "fraction", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
