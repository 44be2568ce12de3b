package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// widthFlagSet mirrors the width-style flags main registers, with the
// same defaults, so the validation sees exactly what flag.Parse builds.
func widthFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("vdom-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("parallel", 8, "")
	fs.Int("shards", 0, "")
	fs.Bool("quick", false, "")
	return fs
}

func TestNonpositiveWidthFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"no flags", nil, nil},
		{"positive values", []string{"-parallel", "4", "-shards", "2"}, nil},
		{"defaults untouched", []string{"-quick"}, nil},
		{"explicit zero parallel", []string{"-parallel", "0"}, []string{"parallel"}},
		{"explicit zero shards", []string{"-shards", "0"}, []string{"shards"}},
		{"negative parallel", []string{"-parallel", "-3"}, []string{"parallel"}},
		{"every width flag nonpositive", []string{"-parallel", "-2", "-shards", "0"},
			[]string{"parallel", "shards"}},
		{"mixed good and bad", []string{"-parallel", "4", "-shards", "-1"}, []string{"shards"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fs := widthFlagSet()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse: %v", err)
			}
			got := nonpositiveWidthFlags(fs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("nonpositiveWidthFlags(%v) = %v, want %v", tc.args, got, tc.want)
			}
		})
	}
}
