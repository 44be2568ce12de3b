package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// workloadDef is one benchmark workload: a generator plus the cells it
// drives. build is the whole set-up phase — input generation, booting,
// compiling and warm-up — and layers derives the per-layer metrics this
// workload owns from a traced run.
type workloadDef struct {
	name    string
	opsUnit string
	build   func(e *env) (*instance, error)
	layers  func(t *tracer, m map[string]float64)
}

var workloads = map[string]workloadDef{
	"apps":          appsWorkload,
	"domain-access": accessWorkload,
	"domain-churn":  churnWorkload,
}

// env is what a cell sees of the run: the input seed, the size, the
// selected negative control, the round being run, and the tracer (nil
// when untraced).
type env struct {
	seed   uint64
	tiny   bool
	inject string
	round  int
	tr     *tracer
}

// instance is a set-up workload: its cells, run in order once per round.
type instance struct {
	cells []cell
	// paperDev, when set, reports the mean deviation from the paper's
	// headline numbers over the cells run so far.
	paperDev func() float64
}

// cell is one closed-loop unit of work; it runs to completion before the
// next starts. run returns the simulated work done and a digest of the
// cell's simulated outputs, or an error when a check failed. A cell
// draws the random parts of its input from the seed and the round, so
// every round runs the same load shape on fresh inputs.
type cell struct {
	name string
	run  func(e *env) (cellOut, error)
	// check, when set, verifies the simulated state after the cell's
	// timed run; its cost is not part of the cell's host time.
	check func() error
}

type cellOut struct {
	ops    uint64
	digest uint64
}

// minRounds is the fewest rounds a pass runs, whatever its time budget:
// every distinct cell then has at least eleven times, so the upper
// quartile cell_tail_ms takes of each rests on that many. Allocation is
// counted over exactly these rounds, so it does not depend on how many
// rounds the host's speed lets fit in the time.
const minRounds = 11

// pass is the record of running an instance's cells for some rounds.
type pass struct {
	names      []string
	rounds     int
	ops        uint64
	cellTime   time.Duration // host time inside cells
	times      []float64     // ms of every cell run
	digests    []uint64      // per executed cell, in execution order
	bursts     []float64     // ms of the calibration burst before each round
	allocBytes uint64        // heap bytes allocated inside cells of the first minRounds rounds
	allocOps   uint64        // ops of those cells
	roundPeaks []float64     // each round's largest live heap, in bytes
	attempted  int
	failed     int
	failures   []string
}

// liveHeap is the runtime metric of the live heap the last collection
// measured.
var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// readHeap returns the bytes allocated so far, exactly (ReadMemStats
// flushes every per-P cache; runtime/metrics would count whole spans),
// and the live heap the last collection measured.
func readHeap() (allocs, live uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(liveHeap)
	return ms.TotalAlloc, liveHeap[0].Value.Uint64()
}

// runPass runs whole rounds of inst's cells: exactly `rounds` of them
// when rounds > 0, otherwise until `seconds` of wall time have passed
// and at least minRounds rounds ran. A calibration burst precedes every
// round. A failed cell — an error, a panic or a failed check — is
// counted and the pass goes on.
func runPass(inst *instance, e *env, seconds float64, rounds int) *pass {
	p := &pass{}
	for _, c := range inst.cells {
		p.names = append(p.names, c.name)
	}
	// Collect set-up's garbage first, so that neither the first cells'
	// times nor the live-heap peaks depend on when set-up last collected.
	runtime.GC()
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	for r := 0; ; r++ {
		if rounds > 0 && r == rounds || rounds == 0 && r >= minRounds && time.Since(start) >= budget {
			break
		}
		e.round = r
		if e.tr != nil {
			e.tr.round = r
		}
		p.bursts = append(p.bursts, burst())
		var peak uint64
		for _, c := range inst.cells {
			allocs0, _ := readHeap()
			e.tr.begin("cell", c.name)
			t0 := time.Now()
			out, err := runCell(c, e)
			d := time.Since(t0)
			e.tr.end()
			allocs, live := readHeap()
			peak = max(peak, live)
			if err == nil && c.check != nil {
				err = c.check()
			}

			p.attempted++
			p.cellTime += d
			p.times = append(p.times, float64(d)/float64(time.Millisecond))
			p.digests = append(p.digests, out.digest)
			if err != nil {
				p.fail(fmt.Sprintf("%s (round %d): %v", c.name, r, err))
				continue
			}
			p.ops += out.ops
			if r < minRounds {
				p.allocBytes += allocs - allocs0
				p.allocOps += out.ops
			}
		}
		p.rounds++
		p.roundPeaks = append(p.roundPeaks, float64(peak))
	}
	return p
}

// runCell runs one cell, turning a panic into a failure of that cell.
func runCell(c cell, e *env) (out cellOut, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return c.run(e)
}

func (p *pass) fail(msg string) {
	p.failed++
	p.failures = append(p.failures, msg)
}

// compareDigests checks the traced pass p against the untraced pass u:
// the same cells in the same order must have produced identical
// simulated outputs. Each mismatch fails that traced cell.
func (p *pass) compareDigests(u *pass) {
	if len(p.digests) != len(u.digests) {
		p.fail(fmt.Sprintf("traced pass ran %d cells, untraced %d", len(p.digests), len(u.digests)))
		return
	}
	for i := range p.digests {
		if p.digests[i] != u.digests[i] {
			p.fail(fmt.Sprintf("%s (round %d): traced digest %016x differs from untraced %016x",
				p.names[i%len(p.names)], i/len(p.names), p.digests[i], u.digests[i]))
		}
	}
}

// simDigest fingerprints the simulated outputs of the first round, so
// two runs of one seed can show their outputs unchanged.
func (p *pass) simDigest() uint64 {
	return digestOf(p.digests[:min(len(p.names), len(p.digests))])
}

// tail is the highest upper quartile among the distinct cells: each
// cell's 75th-percentile time over the rounds, and the largest of those.
// It stays on the slowest kind of cell, and only contention that slows a
// quarter of that cell's runs moves it. A pooled high percentile, such as
// the time with ten cell runs beyond it, lands on the few runs the host's
// scheduler delayed most, and on a shared host those differ from run to
// run by more than any bound worth holding.
type tail struct {
	value   float64
	cell    string
	samples int
	cells   int
}

func tailOf(p *pass) tail {
	t := tail{cells: len(p.names)}
	for i, name := range p.names {
		ts := p.cellTimes(i)
		if len(ts) == 0 {
			continue
		}
		if q := upperQuartile(ts); t.samples == 0 || q > t.value {
			t.value, t.cell, t.samples = q, name, len(ts)
		}
	}
	return t
}

func (t tail) note() string {
	return fmt.Sprintf("p75 of %s's %d times, the highest of %d distinct cells' p75", t.cell, t.samples, t.cells)
}

// pooledTail is the highest cell-time percentile with at least ten cell
// runs beyond it, or the maximum when there are ten runs or fewer. It is
// printed beside cell_tail_ms but holds no bound, for the reason above.
func pooledTail(times []float64) (value, percentile float64, beyond int) {
	n := len(times)
	if n == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	k := n - 11 // zero-based rank with ten samples above it
	if k < 0 {
		k = n - 1
	}
	return sorted[k], 100 * float64(k+1) / float64(n), n - k - 1
}

// cellTimes returns the times of distinct cell i, one per round.
func (p *pass) cellTimes(i int) []float64 {
	var ts []float64
	for j := i; j < len(p.times); j += len(p.names) {
		ts = append(ts, p.times[j])
	}
	return ts
}

// upperQuartile is the nearest-rank 75th percentile of xs.
func upperQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(3*len(s)+3)/4-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// digestOf is FNV-1a over the printed values, one per line.
func digestOf(vals ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintln(h, v)
	}
	return h.Sum64()
}

const fnvOffset = 14695981039346656037

// fold mixes v into the FNV-1a digest h, byte by byte.
func fold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
	}
	return h
}

// rng is a splitmix64 stream: the generators' only source of
// randomness, so one seed always yields the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	return &rng{s: seed ^ digestOf(stream)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// roundSeed derives the seed a cell uses in one round from the cell's
// base seed.
func roundSeed(base uint64, round int) uint64 {
	return (&rng{s: base ^ uint64(round)*0xd1b54a32d192ed03}).next() | 1
}
