package main

import (
	"errors"
	"fmt"
	"time"

	"vdom"
)

var accessWorkload = workloadDef{
	name:    "domain-access",
	opsUnit: "domain activations + loads/stores per host second",
	build:   buildAccess,
	layers:  accessLayers,
}

const (
	// hwKeys is the hardware protection-key count (x86 MPK, ARM DACR)
	// that VDom virtualizes; domain counts sit on both sides of it.
	hwKeys = 16
	// maxAccessDomains bounds every kernel's domain count, including the
	// kernels whose capacity the probe finds unlimited.
	maxAccessDomains = 64
	domainBytes      = 2 << 20
	pageBytes        = 4096
	domainPages      = domainBytes / pageBytes
)

// accessSpec is one generated domain-access system and its batch size.
type accessSpec struct {
	kernel  string
	arch    vdom.Arch
	domains int
	// acts activations per batch, each followed by pages loads/stores.
	acts, pages int
	seed        uint64
}

// genAccess generates the domain-access workload: the Table 4 read
// path. Why this workload: every host nanosecond goes to hw access, tlb
// lookup, pagetable walk, and the kernels' domain activation, with no
// sim at all, so it exercises exactly the layers the apps workload
// barely touches. Each kernel runs on X86 and ARM with N domains of
// 2 MiB on both sides of the 16-key hardware limit: 12 (fits the keys)
// and 64, clamped to the kernel's capacity as the probe found it (EPK's
// four EPT groups hold 60). 64 domains overflow the four address spaces
// VDom gives a thread by default, so VDom both switches VDS and evicts,
// and libmpk evicts keys. Even 12 domains are 6144 pages,
// beyond the 1536-entry TLB. The domain counts and batch sizes are fixed
// so every seed does the same work; the seed drives the random
// activation and page orders.
func genAccess(seed uint64, tiny bool, capacity map[string]int) []accessSpec {
	r := newRNG(seed, "domain-access")
	small, large, acts, pages := 12, maxAccessDomains, 512, 64
	archs := []vdom.Arch{vdom.X86, vdom.ARM}
	if tiny {
		small, large, acts, pages = 4, hwKeys+4, 8, 8
		archs = archs[:1]
	}
	var specs []accessSpec
	for _, k := range vdom.Kernels() {
		for _, arch := range archs {
			for _, n := range []int{small, large} {
				specs = append(specs, accessSpec{kernel: k, arch: arch, domains: min(n, capacity[k]),
					acts: acts, pages: pages, seed: r.next()})
			}
		}
	}
	return specs
}

// probeCapacity allocates domains on a fresh system of each kernel until
// the kernel refuses one, up to maxAccessDomains.
func probeCapacity() (map[string]int, error) {
	caps := map[string]int{}
	for _, k := range vdom.Kernels() {
		sys, err := vdom.NewSystemWith(vdom.WithKernel(k))
		if err != nil {
			return nil, err
		}
		p := sys.NewProcess(vdom.DefaultPolicy())
		t, err := p.NewThreadOn(0)
		if err != nil {
			return nil, err
		}
		n := 0
		for ; n < maxAccessDomains; n++ {
			if _, _, err := p.DomainAlloc(t); err != nil {
				break
			}
		}
		caps[k] = n
	}
	return caps, nil
}

// layerOf names the metric prefix of a kernel's domain layer: the vdom
// kernel's is the core package.
func layerOf(kernel string) string {
	if kernel == "vdom" {
		return "core"
	}
	return kernel
}

// accessSys is one booted system with its domains protected.
type accessSys struct {
	spec  accessSpec
	layer string
	sys   *vdom.System
	proc  *vdom.Process
	th    *vdom.Thread
	ids   []uint64
	base  []vdom.Addr
}

// bootAccess boots one system and protects its domains. Traced systems
// are booted with the metrics registry on, for the TLB counters.
func bootAccess(e *env, s accessSpec) (*accessSys, error) {
	a := &accessSys{spec: s, layer: layerOf(s.kernel)}
	opts := []vdom.Option{vdom.WithArch(s.arch), vdom.WithKernel(s.kernel)}
	if e.tr != nil {
		opts = append(opts, vdom.WithMetrics())
	}
	e.tr.begin("vdom.boot", s.kernel)
	sys, err := vdom.NewSystemWith(opts...)
	if err == nil {
		a.sys = sys
		a.proc = sys.NewProcess(vdom.DefaultPolicy())
		a.th, err = a.proc.NewThreadOn(0)
	}
	e.tr.end()
	if err != nil {
		return nil, err
	}
	if _, err := a.proc.DomainPrepare(a.th, 0); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	for i := 0; i < s.domains; i++ {
		e.tr.begin("mm.mmap", "")
		addr, err := a.th.Mmap(domainBytes)
		e.tr.end()
		if err != nil {
			return nil, fmt.Errorf("mmap domain %d: %w", i, err)
		}
		id, _, err := a.proc.DomainAlloc(a.th)
		if err != nil {
			return nil, fmt.Errorf("alloc domain %d: %w", i, err)
		}
		e.tr.begin(a.layer+".protect", "")
		_, err = a.proc.DomainProtect(a.th, addr, domainBytes, id)
		e.tr.end()
		if err != nil {
			return nil, fmt.Errorf("protect domain %d: %w", i, err)
		}
		a.ids, a.base = append(a.ids, id), append(a.base, addr)
	}
	return a, nil
}

// accessOrder is one access order over a system: sequential (domains in
// turn, pages in runs) or seeded random. Each cell runs one batch.
type accessOrder struct {
	sys    *accessSys
	random bool
	rng    *rng
	cursor int
}

// batch runs acts activations, each followed by pages loads and stores
// (one store in four) and a deactivation.
func (o *accessOrder) batch(e *env) (cellOut, error) {
	s := o.sys
	n, pages := len(s.ids), s.spec.pages
	act, acc := e.tr.timer(s.layer+".activate"), e.tr.timer("hw.access")
	before := o.counters(e)
	var actCycles, accCycles, deactCycles, stores uint64
	for a := 0; a < s.spec.acts; a++ {
		var d, start int
		if o.random {
			d = o.rng.intn(n)
		} else {
			d, start = o.cursor%n, (o.cursor/n)*pages%domainPages
			o.cursor++
		}
		t0 := stamp(act)
		c, err := s.proc.DomainActivate(s.th, s.ids[d])
		act.since(t0)
		if err != nil {
			return cellOut{}, fmt.Errorf("activate domain %d: %w", d, err)
		}
		actCycles += uint64(c)
		for j := 0; j < pages; j++ {
			page, store := (start+j)%domainPages, j%4 == 3
			if o.random {
				page, store = o.rng.intn(domainPages), o.rng.intn(4) == 0
			}
			addr := s.base[d] + vdom.Addr(page*pageBytes)
			t0 := stamp(acc)
			if store {
				c, err = s.th.StoreCost(addr)
				stores++
			} else {
				c, err = s.th.LoadCost(addr)
			}
			acc.since(t0)
			if err != nil {
				return cellOut{}, fmt.Errorf("access domain %d page %d: %w", d, page, err)
			}
			accCycles += uint64(c)
		}
		c, err = s.proc.DomainDeactivate(s.th, s.ids[d])
		if err != nil {
			return cellOut{}, fmt.Errorf("deactivate domain %d: %w", d, err)
		}
		deactCycles += uint64(c)
	}
	for k, v := range o.counters(e) {
		e.tr.count(k, float64(v-before[k]))
	}
	// The digest is folded without fmt, which would allocate: this
	// workload's steady state allocates almost nothing, and
	// alloc_bytes_per_op should see only the simulator.
	digest := fold(fold(fold(fold(fnvOffset, actCycles), accCycles), deactCycles), stores)
	if s.spec.kernel == "vdom" {
		s.proc.Stats().Emit(func(_ string, v uint64) { digest = fold(digest, v) })
	}
	return cellOut{ops: uint64(s.spec.acts * (1 + pages)), digest: digest}, nil
}

// counters reads the traced system's simulated counters in round 0 (nil
// otherwise): TLB and walk-cache outcomes, and under the vdom kernel the
// eviction and VDS-switch counts.
func (o *accessOrder) counters(e *env) map[string]uint64 {
	if e.tr == nil || e.tr.round != 0 {
		return nil
	}
	s := o.sys
	c := s.sys.MetricsSnapshot().Counters
	out := map[string]uint64{
		"tlb.hits": c["tlb/hits"], "tlb.misses": c["tlb/misses"],
		"hw.walk_cache_hits": c["hw/walk-cache-hits"], "hw.walk_cache_misses": c["hw/walk-cache-misses"],
	}
	if s.spec.kernel == "vdom" {
		st := s.proc.Stats()
		out["core.evictions"], out["core.vds_switches"] = st.Evictions, st.VDSSwitches
	}
	return out
}

// buildAccess is the domain-access set-up: probe capacities, generate,
// boot and protect every system, then warm up with one batch per cell,
// which also faults in the pages the first batches touch.
func buildAccess(e *env) (*instance, error) {
	caps, err := probeCapacity()
	if err != nil {
		return nil, fmt.Errorf("capacity probe: %w", err)
	}
	inst := &instance{}
	for _, spec := range genAccess(e.seed, e.tiny, caps) {
		s, err := bootAccess(e, spec)
		if err != nil {
			return nil, fmt.Errorf("%s/%v: %w", spec.kernel, spec.arch, err)
		}
		audit := func() error {
			if v := s.sys.Audit(); len(v) > 0 {
				return fmt.Errorf("audit: %d violations, first: %v", len(v), v[0])
			}
			return nil
		}
		for _, order := range []string{"seq", "random"} {
			o := &accessOrder{sys: s, random: order == "random", rng: &rng{s: spec.seed}}
			name := fmt.Sprintf("%s/%v/%dd/%s", spec.kernel, spec.arch, spec.domains, order)
			if _, err := o.batch(&env{}); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", name, err)
			}
			inst.cells = append(inst.cells, cell{name: name, run: o.batch, check: audit})
		}
	}
	if len(inst.cells) == 0 {
		return nil, errors.New("no kernels registered")
	}
	return inst, nil
}

func accessLayers(t *tracer, m map[string]float64) {
	m["vdom.boot_us"] = t.spanMS("vdom.boot") * 1e3
	m["mm.mmap_us"] = t.spanMS("mm.mmap") * 1e3
	for _, k := range vdom.Kernels() {
		l := layerOf(k)
		m[l+".protect_us"] = t.spanMS(l+".protect") * 1e3
		m[l+".activate_ns"] = t.timers[l+".activate"].avg(time.Nanosecond)
	}
	m["hw.access_ns"] = t.timers["hw.access"].avg(time.Nanosecond)
	m["tlb.hit_ratio"] = ratio(t.counts["tlb.hits"], t.counts["tlb.misses"])
	m["hw.walk_cache_hit_ratio"] = ratio(t.counts["hw.walk_cache_hits"], t.counts["hw.walk_cache_misses"])
	m["core.evictions"] = t.counts["core.evictions"]
	m["core.vds_switches"] = t.counts["core.vds_switches"]
}

// ratio is hits / (hits + misses), 0 when nothing was looked up.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
