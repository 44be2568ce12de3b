package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLintModuleMap checks both directions of the module-map rule on a
// scratch tree with packages internal/a and internal/b: a package the
// map omits and a map row naming a package that does not exist are
// each reported, while a mention of a file inside a package is fine.
func TestLintModuleMap(t *testing.T) {
	root := t.TempDir()
	var dirs []string
	for _, pkg := range []string{"a", "b"} {
		dir := filepath.Join(root, "internal", pkg)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	design := strings.Join([]string{
		"# Design",
		"## 3. System inventory (module map)",
		"| A | `internal/a` | see `internal/a/a.go` |",
		"| Gone | `internal/gone` | deleted package |",
		"## 4. Next",
		"`internal/elsewhere` is outside the map section",
	}, "\n")
	path := filepath.Join(root, "DESIGN.md")
	if err := os.WriteFile(path, []byte(design), 0o644); err != nil {
		t.Fatal(err)
	}
	got := lintModuleMap(root, dirs)
	want := []string{
		path + ":2: module map is missing package internal/b",
		path + ":4: module map names internal/gone, which is not a package",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lintModuleMap =\n%q\nwant\n%q", got, want)
	}
}
