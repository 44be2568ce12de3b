package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// runTiny runs the command on the tiny inputs and returns its exit code,
// standard output and decoded result line.
func runTiny(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	args = append([]string{"--size", "tiny", "--seconds", "0", "--out-dir", t.TempDir()}, args...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result (%v)\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

// TestTinyRunsEmitEveryMetric runs every workload small, untraced and
// traced, and checks that each prints every catalogue metric with its
// unit and passes every check.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				code, out, res := runTiny(t, "--workload", w, "--trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				printed := []string{"sim_digest", "error_rate"}
				if trace == "0" && w == "apps" {
					printed = append(printed, "paper_dev_pct")
				}
				if trace == "1" {
					printed = append(printed, "tracing overhead", "chrome trace")
				}
				for _, s := range printed {
					if !strings.Contains(out, s) {
						t.Errorf("output lacks %q:\n%s", s, out)
					}
				}
			})
		}
	}
}

// TestNegativeControls corrupts one checked output per control: each
// must fail cells, print a non-zero error rate and exit non-zero.
func TestNegativeControls(t *testing.T) {
	for _, c := range []struct{ workload, trace, inject string }{
		{"domain-churn", "0", injectTraceByte},
		{"domain-churn", "0", injectSnapshotByte},
		{"domain-access", "1", injectDigest},
		{"apps", "1", injectDigest},
	} {
		t.Run(c.workload+"/"+c.inject, func(t *testing.T) {
			code, out, res := runTiny(t, "--workload", c.workload, "--trace", c.trace, "--inject", c.inject)
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("control not caught: exit %d, result %+v\n%s", code, res, out)
			}
			if strings.Contains(out, "error_rate                   0.0000") {
				t.Errorf("error_rate printed as zero:\n%s", out)
			}
		})
	}
}

// TestGeneratorsAreSeeded checks that a seed always yields the same
// generated inputs and that another seed yields other ones.
func TestGeneratorsAreSeeded(t *testing.T) {
	caps, err := probeCapacity()
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]func(seed uint64) any{
		"apps":          func(seed uint64) any { return genApps(seed, false) },
		"domain-access": func(seed uint64) any { return genAccess(seed, false, caps) },
		"domain-churn":  func(seed uint64) any { return genChurn(seed, false) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// TestAccessSizing checks the domain counts against each kernel's
// capacity and the 16-key hardware limit.
func TestAccessSizing(t *testing.T) {
	caps, err := probeCapacity()
	if err != nil {
		t.Fatal(err)
	}
	if caps["epk"] != 60 {
		t.Errorf("epk capacity %d, want 60", caps["epk"])
	}
	below, above := map[string]bool{}, map[string]bool{}
	for _, s := range genAccess(1, false, caps) {
		if s.domains > caps[s.kernel] {
			t.Errorf("%s/%v: %d domains exceed capacity %d", s.kernel, s.arch, s.domains, caps[s.kernel])
		}
		below[s.kernel] = below[s.kernel] || s.domains < hwKeys
		above[s.kernel] = above[s.kernel] || s.domains > hwKeys
	}
	for k := range caps {
		if !below[k] || !above[k] {
			t.Errorf("%s: domain counts do not straddle the %d-key limit", k, hwKeys)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue and the
// repository's BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	strip := func(ds []metricDef) []metricDef {
		out := make([]metricDef, len(ds))
		for i, d := range ds {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if got, want := b.EndToEnd, strip(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", got, want)
	}
	if got, want := b.PerLayer, strip(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", got, want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
}

func TestTailOf(t *testing.T) {
	// Two distinct cells over 100 rounds: "fast" runs 1..100 ms and
	// "slow" 101..200 ms, but one round delayed "fast" to 1000 ms.
	p := &pass{names: []string{"fast", "slow"}}
	for r := 0; r < 100; r++ {
		fast := float64(r + 1)
		if r == 50 {
			fast = 1000
		}
		p.times = append(p.times, fast, float64(r+101))
	}
	tl := tailOf(p)
	if tl.value != 175 || tl.cell != "slow" || tl.samples != 100 || tl.cells != 2 {
		t.Errorf("tail = %+v, want slow's p75 175 over 100 samples", tl)
	}
	if v, pct, beyond := pooledTail(p.times); v != 191 || pct != 95 || beyond != 10 {
		t.Errorf("pooled tail = %v (p%v, %d beyond), want 191 (p95, 10 beyond)", v, pct, beyond)
	}
	if v, _, _ := pooledTail([]float64{2, 5, 1}); v != 5 {
		t.Errorf("pooled tail of 2, 5, 1 = %v, want the maximum", v)
	}
	if q := upperQuartile([]float64{5, 1, 3}); q != 5 {
		t.Errorf("upper quartile of 1, 3, 5 = %v, want 5", q)
	}
}
