package bench

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeRejectsBadProbabilities pins that the harness-pressure
// probabilities are validated like a scenario crash stanza's: a value
// outside [0, 1] fails the run with an error naming the flag, before any
// shard starts (so no health report is ever written).
func TestServeRejectsBadProbabilities(t *testing.T) {
	cases := []struct {
		name      string
		writeFail float64
		corrupt   float64
		flag      string
	}{
		{"negative write-fail", -3, 0, "-snap-write-fail"},
		{"write-fail above one", 1.5, 0, "-snap-write-fail"},
		{"corrupt above one", 0, 7, "-snap-corrupt"},
		{"corrupt NaN", 0, math.NaN(), "-snap-corrupt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			health := filepath.Join(t.TempDir(), "health.json")
			o := Options{Quick: true, Serve: ServeOptions{
				Shards: 1, OpsPerShard: 300, HealthOut: health,
				SnapWriteFail: tc.writeFail, SnapCorrupt: tc.corrupt,
			}}
			err := Serve(io.Discard, o, 42)
			if err == nil {
				t.Fatal("Serve accepted an out-of-range probability")
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("error %q does not name %s", err, tc.flag)
			}
			if _, statErr := os.Stat(health); !os.IsNotExist(statErr) {
				t.Errorf("health report written (stat: %v): a shard ran before validation", statErr)
			}
		})
	}
}
