// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads against the simulator's public entry points,
// measures host speed, checks that the simulated outputs are correct,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 616, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run repeats its cells traced and reports the per-layer ones. README.md
// in this directory is the metric catalogue and the workload rationale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config holds the command-line settings of one run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool
	inject   string
	outDir   string
}

// Negative controls selectable with --inject. Each corrupts one output
// the benchmark checks, so the run must report failed cells and exit
// non-zero.
const (
	injectTraceByte    = "trace-byte"    // flip a byte of each encoded domain-churn trace
	injectSnapshotByte = "snapshot-byte" // flip a byte of each encoded domain-churn snapshot
	injectDigest       = "digest"        // perturb one traced cell digest (needs --trace 1)
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the process exit code. The exit
// code is 0 only when every cell passed every check.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var size string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the input generator")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "host seconds the timed pass runs whole rounds for (at least 11 rounds)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&size, "size", "full", "input size: full, or tiny for smoke tests")
	fs.StringVar(&cfg.inject, "inject", "", "negative control: "+injectTraceByte+", "+injectSnapshotByte+" or "+injectDigest)
	fs.StringVar(&cfg.outDir, "out-dir", ".bench_build", "directory for the Chrome trace of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: --workload must be one of %s\n", strings.Join(workloadNames(), ", "))
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case size != "full" && size != "tiny":
		fmt.Fprintln(stderr, "perfbench: --size must be full or tiny")
		return 2
	case cfg.seconds < 0:
		fmt.Fprintln(stderr, "perfbench: --seconds must not be negative")
		return 2
	case cfg.inject != "" && cfg.inject != injectTraceByte && cfg.inject != injectSnapshotByte && cfg.inject != injectDigest:
		fmt.Fprintf(stderr, "perfbench: unknown --inject %q\n", cfg.inject)
		return 2
	}
	cfg.traced, cfg.tiny = trace == 1, size == "tiny"

	if err := initBurst(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	var err error
	if cfg.traced {
		res, err = measureTraced(cfg, w, stdout)
	} else {
		res, err = measureTimed(cfg, w, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps is how many times an end-to-end run sets up its workload;
// setup_s is the median.
const setupReps = 9

// measureTimed is the --trace 0 run: set up several times, then run
// whole rounds of cells for cfg.seconds and report the end-to-end
// metrics, with every time scaled to the reference host (calibrate.go).
func measureTimed(cfg config, w workloadDef, out io.Writer) (*result, error) {
	var inst *instance
	var setups, bursts []float64
	var setupAlloc uint64 // bytes the last set-up, whose instance runs, allocated
	for i := 0; i < setupReps; i++ {
		bursts = append(bursts, burst())
		allocs0, _ := readHeap()
		start := time.Now()
		var err error
		inst, err = w.build(&env{seed: cfg.seed, tiny: cfg.tiny, inject: cfg.inject})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		allocs, _ := readHeap()
		setupAlloc = allocs - allocs0
	}
	p := runPass(inst, &env{seed: cfg.seed, tiny: cfg.tiny, inject: cfg.inject}, cfg.seconds, 0)
	bursts = append(bursts, p.bursts...)
	scale := refBurstMS / median(bursts)

	// ops_per_s and cell_p50_ms rest on each distinct cell's median
	// time, so contention that slows a few cells does not move them, and
	// cell_p50_ms does not hop between the clusters of unlike cells.
	cellMedians := make([]float64, len(inst.cells))
	var roundMS float64
	for i := range inst.cells {
		cellMedians[i] = median(p.cellTimes(i))
		roundMS += cellMedians[i]
	}
	tail := tailOf(p)
	raw := map[string]float64{
		"setup_s":      median(setups),
		"ops_per_s":    float64(p.ops) / float64(p.rounds) / (roundMS / 1e3),
		"cell_p50_ms":  median(cellMedians),
		"cell_tail_ms": tail.value,
	}
	m := map[string]float64{
		"setup_s":            raw["setup_s"] * scale,
		"ops_per_s":          raw["ops_per_s"] / scale,
		"cell_p50_ms":        raw["cell_p50_ms"] * scale,
		"cell_tail_ms":       raw["cell_tail_ms"] * scale,
		"alloc_bytes_per_op": float64(setupAlloc+p.allocBytes) / float64(max(p.allocOps, 1)),
		"peak_heap_mb":       median(p.roundPeaks) / (1 << 20),
	}
	errRate := float64(p.failed) / float64(p.attempted)

	fmt.Fprintf(out, "perfbench %s: seed %d, size %s, %d distinct cells x %d rounds = %d cells attempted, %d failed\n",
		w.name, cfg.seed, sizeName(cfg.tiny), len(inst.cells), p.rounds, p.attempted, p.failed)
	printFailures(out, p.failures)
	fmt.Fprintf(out, "sim_digest %016x\n", p.simDigest())
	fmt.Fprintf(out, "host speed: calibration burst median %.3f ms over %d bursts; times are scaled by %.4f to the %.1f ms reference\n",
		median(bursts), len(bursts), scale, refBurstMS)
	notes := map[string]string{
		"setup_s":            fmt.Sprintf("median of %d set-ups", len(setups)),
		"ops_per_s":          w.opsUnit,
		"cell_p50_ms":        fmt.Sprintf("median over %d distinct cells of each one's median of %d times", len(inst.cells), p.rounds),
		"cell_tail_ms":       tail.note(),
		"alloc_bytes_per_op": fmt.Sprintf("set-up %.1f MB + first %d rounds %.1f MB, over %d ops", float64(setupAlloc)/1e6, minRounds, float64(p.allocBytes)/1e6, p.allocOps),
		"peak_heap_mb":       fmt.Sprintf("median over %d rounds of the round's largest live heap", p.rounds),
	}
	fmt.Fprintf(out, "%-20s %14s  %-9s %14s  %s\n", "metric", "value", "unit", "raw", "note")
	for _, d := range endToEnd {
		rawCol := "-"
		if v, ok := raw[d.Name]; ok {
			rawCol = fmt.Sprintf("%.4f", v)
		}
		fmt.Fprintf(out, "%-20s %14.4f  %-9s %14s  %s\n", d.Name, m[d.Name], d.Unit, rawCol, notes[d.Name])
	}
	pooled, pct, beyond := pooledTail(p.times)
	fmt.Fprintf(out, "%-20s %14.4f  %-9s %14.4f  p%.2f of %d cell times, %d beyond it; no bound\n",
		"pooled_tail_ms", pooled*scale, "ms", pooled, pct, len(p.times), beyond)
	fmt.Fprintf(out, "%-20s %14.4f  %-9s %14s  %s\n", "error_rate", errRate, "fraction", "-", "failed cells / attempted cells")
	if inst.paperDev != nil {
		fmt.Fprintf(out, "%-20s %14.4f  %-9s %14s  %s\n", "paper_dev_pct", inst.paperDev(), "%", "-", "mean |ours/paper - 1| over the PaperHeadlines cells")
	}

	res := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// measureTraced is the --trace 1 run: an untraced pass for cfg.seconds,
// then a fresh set-up and the same number of rounds traced, with a CPU
// profile. The two passes must agree on every cell digest. Per-layer
// metrics owned by another workload come from a tiny traced probe of
// that workload, so every run reports the same table.
func measureTraced(cfg config, w workloadDef, out io.Writer) (*result, error) {
	plain := &env{seed: cfg.seed, tiny: cfg.tiny, inject: cfg.inject}
	inst, err := w.build(plain)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	p := runPass(inst, plain, cfg.seconds, 0)

	tr := newTracer()
	traced := &env{seed: cfg.seed, tiny: cfg.tiny, inject: cfg.inject, tr: tr}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	tr.round = -1 // set-up is not part of any round's counts
	tinst, err := w.build(traced)
	if err != nil {
		prof.stop()
		return nil, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	tp := runPass(tinst, traced, 0, p.rounds)
	samples, err := prof.stop()
	if err != nil {
		return nil, err
	}
	if cfg.inject == injectDigest && len(tp.digests) > 0 {
		tp.digests[0] ^= 1
	}
	tp.compareDigests(p)

	layers := map[string]float64{}
	w.layers(tr, layers)
	for name, v := range attributeSamples(samples) {
		layers[name] = v
	}
	layers["trace.overhead_ratio"] = tp.cellTime.Seconds() / p.cellTime.Seconds()
	source := map[string]string{}
	for _, o := range workloadNames() {
		if o == w.name {
			continue
		}
		ow := workloads[o]
		ptr := newTracer()
		ptr.round = -1
		pinst, err := ow.build(&env{seed: cfg.seed, tiny: true, tr: ptr})
		if err != nil {
			return nil, fmt.Errorf("%s probe set-up: %w", o, err)
		}
		pp := runPass(pinst, &env{seed: cfg.seed, tiny: true, tr: ptr}, 0, 1)
		if pp.failed > 0 {
			printFailures(out, pp.failures)
			return nil, fmt.Errorf("%s probe: %d cells failed", o, pp.failed)
		}
		probe := map[string]float64{}
		ow.layers(ptr, probe)
		for _, d := range perLayer {
			if d.owner == o {
				layers[d.Name] = probe[d.Name]
				source[d.Name] = "tiny " + o + " probe"
			}
		}
	}

	tracePath := filepath.Join(cfg.outDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, cfg.seed))
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}

	attempted, failed := p.attempted+tp.attempted, p.failed+tp.failed
	fmt.Fprintf(out, "perfbench %s (traced): seed %d, size %s, %d distinct cells x %d rounds per pass, %d cells attempted, %d failed\n",
		w.name, cfg.seed, sizeName(cfg.tiny), len(inst.cells), p.rounds, attempted, failed)
	printFailures(out, p.failures)
	printFailures(out, tp.failures)
	fmt.Fprintf(out, "sim_digest %016x (untraced) %016x (traced)\n", p.simDigest(), tp.simDigest())
	fmt.Fprintf(out, "tracing overhead: traced %.3fs / untraced %.3fs of cell time = %.3f\n",
		tp.cellTime.Seconds(), p.cellTime.Seconds(), layers["trace.overhead_ratio"])
	fmt.Fprintf(out, "chrome trace: %s (%d spans)\n", tracePath, len(tr.spans))
	fmt.Fprintf(out, "cpu profile: %d samples\n", samples.total)
	tr.printSpanTable(out)
	fmt.Fprintf(out, "%-28s %14s  %-9s %s\n", "per-layer metric", "value", "unit", "source")
	var fracSum float64
	for _, d := range perLayer {
		src := source[d.Name]
		if src == "" {
			src = "traced " + w.name
		}
		fmt.Fprintf(out, "%-28s %14.4f  %-9s %s\n", d.Name, layers[d.Name], d.Unit, src)
		if strings.HasSuffix(d.Name, "_frac") {
			fracSum += layers[d.Name]
		}
	}
	fmt.Fprintf(out, "%-28s %14.4f  %-9s %s\n", "(sum of *_frac)", fracSum, "fraction", "profile samples accounted for")
	fmt.Fprintf(out, "%-28s %14.4f  %-9s %s\n", "error_rate", float64(failed)/float64(attempted), "fraction", "failed cells / attempted cells, both passes")

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Value: layers[d.Name], Unit: d.Unit}
	}
	return res, nil
}

func sizeName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

// printFailures lists the first failures; the rest are only counted.
func printFailures(out io.Writer, failures []string) {
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(out, "FAIL ... and %d more\n", len(failures)-i)
			return
		}
		fmt.Fprintf(out, "FAIL %s\n", f)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
