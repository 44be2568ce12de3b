package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// soakDigest fingerprints everything a soak's op mix and fault stream
// decide: the cycle total, the injected and recovered counters, the
// event log length, every audit finding and unrecovered op, and the
// recorded trace's event count.
func soakDigest(r *SoakResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ops=%d cycles=%d audits=%d rollovers=%d events=%d\n",
		r.Ops, r.Cycles, r.Audits, r.ASIDRollovers, len(r.Events))
	for _, m := range []map[string]uint64{r.Injected, r.Recovered} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%d\n", k, m[k])
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(h, "violation %s\n", v)
	}
	for _, u := range r.Unrecovered {
		fmt.Fprintf(h, "unrecovered %s\n", u)
	}
	if r.Trace != nil {
		fmt.Fprintf(h, "trace=%d\n", len(r.Trace.Events))
	}
	return h.Sum64()
}

// TestSoakPinned pins each kernel's soak to the digest the run produced
// before the per-kernel drivers were merged into one SoakRun, so each
// kernel's op mix and PRNG draw order stay exactly as they were.
func TestSoakPinned(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		want   uint64
	}{
		{"", 0xdcb1e1f67248eb65},
		{"dpti", 0x8ef83e177137fc27},
	} {
		cfg := soakCfg(17)
		cfg.Ops = 1500
		cfg.Kernel = tc.kernel
		if tc.kernel == "dpti" {
			cfg.Chaos.VDSAllocFail, cfg.Chaos.PdomExhaustion = 0, 0
		}
		res := Soak(cfg)
		if got := soakDigest(res); got != tc.want {
			t.Errorf("kernel %q: soak digest %#016x, want %#016x", tc.kernel, got, tc.want)
		}
		if res.TotalInjected() == 0 {
			t.Errorf("kernel %q: the pinned soak injected no faults", tc.kernel)
		}
	}
}
