package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestChaosPinned pins the quick chaos experiment byte for byte: the
// sha256 of its rendered output and of its soak report, for both soaked
// kernels. No golden file covers chaos (`all` does not run it), so this
// is what catches a change to how shard results are aggregated or
// reported.
func TestChaosPinned(t *testing.T) {
	cases := []struct {
		kernel, out, report string
	}{
		{"",
			"a5e29317dbad8b9d9b9af9355c479032edcb6b611f9756b5bd1e0472ac6680c9",
			"b3a3f80a93e5ee23151523d6fc6d2ebf54947b6c05b9b5d94b40535019b4886b"},
		{"dpti",
			"0057dae248bc7e2c176364f3753d73fde72559b884130495ed7c70ccb19dc08f",
			"eadc52cbc28f67349a0de098694782c759416189ff35c83c0998c29195bf53c5"},
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range cases {
		name := tc.kernel
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "soak.json")
			var out bytes.Buffer
			if err := ChaosSeed(&out, Options{Quick: true, Kernel: tc.kernel, SoakReport: path}, 42); err != nil {
				t.Fatal(err)
			}
			report, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(out.Bytes()); got != tc.out {
				t.Errorf("rendered output sha256 = %s, want %s\n%s", got, tc.out, out.Bytes())
			}
			if got := digest(report); got != tc.report {
				t.Errorf("soak report sha256 = %s, want %s\n%s", got, tc.report, report)
			}
		})
	}
}
