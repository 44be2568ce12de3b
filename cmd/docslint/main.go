// Command docslint enforces the repository's documentation floor in CI.
//
// It checks four things, chosen to keep the public surface, the module
// map (DESIGN.md §3), and the top-level documentation set
// self-describing:
//
//  1. Every exported identifier in the root vdom package (the public
//     API) must carry a doc comment.
//  2. Every package under internal/ must have a package comment.
//  3. Every package under internal/ must appear in DESIGN.md's §3
//     module map, and every internal/<pkg> the map names must be a
//     package in the tree, so the map cannot silently drift from it in
//     either direction.
//  4. Every top-level *.md file must be reachable from README.md
//     through the mention graph (file A links to B when A's text names
//     B), so no document becomes an orphan no reader can find.
//     Repo-growth scaffolding (CHANGES.md, ISSUE.md, ROADMAP.md,
//     PAPERS.md, SNIPPETS.md) is exempt.
//
// Usage:
//
//	go run ./cmd/docslint [root]
//
// root defaults to the current directory. Exit status is non-zero if
// any violation is found; each violation is printed as file:line.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string

	problems = append(problems, lintExported(root)...)

	pkgDirs, err := internalPackageDirs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	for _, dir := range pkgDirs {
		problems = append(problems, lintPackageComment(dir)...)
	}
	problems = append(problems, lintModuleMap(root, pkgDirs)...)
	problems = append(problems, lintDocReachability(root)...)

	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("docslint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docslint: ok")
}

// parseDir parses the non-test Go files of one directory.
func parseDir(dir string) (*token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return fset, files, nil
}

// lintExported reports exported identifiers without doc comments in the
// package rooted at dir (the public vdom package).
func lintExported(dir string) []string {
	fset, files, err := parseDir(dir)
	if err != nil {
		return []string{fmt.Sprintf("docslint: %v", err)}
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				// Methods on unexported receivers are not public API.
				if d.Recv != nil && !exportedReceiver(d.Recv) {
					continue
				}
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Name.Pos(), kind, d.Name.Name)
			case *ast.GenDecl:
				lintGenDecl(d, report)
			}
		}
	}
	return out
}

// lintGenDecl checks const/var/type declarations. A doc comment on the
// grouped declaration covers its members; otherwise each exported spec
// needs its own.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	if d.Tok == token.IMPORT {
		return
	}
	kind := map[token.Token]string{token.CONST: "const", token.VAR: "var", token.TYPE: "type"}[d.Tok]
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Name.Pos(), kind, s.Name.Name)
			}
		case *ast.ValueSpec:
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(n.Pos(), kind, n.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// lintPackageComment reports a package under internal/ whose non-test
// files carry no package comment at all.
func lintPackageComment(dir string) []string {
	fset, files, err := parseDir(dir)
	if err != nil {
		return []string{fmt.Sprintf("docslint: %v", err)}
	}
	if len(files) == 0 {
		return nil
	}
	for _, f := range files {
		if f.Doc != nil {
			return nil
		}
	}
	p := fset.Position(files[0].Package)
	return []string{fmt.Sprintf("%s:%d: package %s has no package comment", p.Filename, p.Line, files[0].Name.Name)}
}

// lintModuleMap requires every internal/* package to appear (as an
// `internal/<path>` mention) in DESIGN.md's "System inventory (module
// map)" section, and every such mention to name a package that exists
// (or a path inside one), keeping the map in lockstep with the package
// tree: a row left behind by a deleted package fails like a missing one.
func lintModuleMap(root string, pkgDirs []string) []string {
	path := filepath.Join(root, "DESIGN.md")
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("docslint: %v", err)}
	}
	section, line := moduleMapSection(string(data))
	if section == "" {
		return []string{fmt.Sprintf("%s:1: no \"module map\" section found", path)}
	}
	var out []string
	pkgs := make([]string, len(pkgDirs))
	for i, dir := range pkgDirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			rel = dir
		}
		pkgs[i] = filepath.ToSlash(rel)
		if !strings.Contains(section, pkgs[i]) {
			out = append(out, fmt.Sprintf("%s:%d: module map is missing package %s", path, line, pkgs[i]))
		}
	}
	for i, l := range strings.Split(section, "\n") {
		for _, m := range internalMention.FindAllString(l, -1) {
			if !namesPackage(strings.TrimSuffix(m, "/"), pkgs) {
				out = append(out, fmt.Sprintf("%s:%d: module map names %s, which is not a package", path, line+i, m))
			}
		}
	}
	return out
}

// internalMention matches an `internal/<path>` mention in prose.
var internalMention = regexp.MustCompile(`internal/[A-Za-z0-9_/]+`)

// namesPackage reports whether mention is one of pkgs or a path inside
// one of them.
func namesPackage(mention string, pkgs []string) bool {
	for _, p := range pkgs {
		if mention == p || strings.HasPrefix(mention, p+"/") {
			return true
		}
	}
	return false
}

// moduleMapSection returns the body of the DESIGN.md section whose
// heading contains "module map" (case-insensitive), and the heading's
// line number.
func moduleMapSection(doc string) (string, int) {
	lines := strings.Split(doc, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "#") && strings.Contains(strings.ToLower(l), "module map") {
			start = i
			break
		}
	}
	if start < 0 {
		return "", 0
	}
	end := len(lines)
	for i := start + 1; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "## ") {
			end = i
			break
		}
	}
	return strings.Join(lines[start:end], "\n"), start + 1
}

// docExempt lists top-level documents that need not be reachable from
// README.md: repo-growth scaffolding a reader is not expected to
// navigate to.
var docExempt = map[string]bool{
	"CHANGES.md":  true,
	"ISSUE.md":    true,
	"ROADMAP.md":  true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
}

// lintDocReachability requires every non-exempt top-level *.md file to
// be reachable from README.md through the mention graph: document A
// links to document B when A's text contains B's filename.
func lintDocReachability(root string) []string {
	entries, err := os.ReadDir(root)
	if err != nil {
		return []string{fmt.Sprintf("docslint: %v", err)}
	}
	bodies := map[string]string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".md") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return []string{fmt.Sprintf("docslint: %v", err)}
		}
		bodies[name] = string(data)
	}
	if _, ok := bodies["README.md"]; !ok {
		return []string{fmt.Sprintf("%s: missing README.md", root)}
	}
	reachable := map[string]bool{"README.md": true}
	queue := []string{"README.md"}
	for len(queue) > 0 {
		from := queue[0]
		queue = queue[1:]
		for name := range bodies {
			if !reachable[name] && strings.Contains(bodies[from], name) {
				reachable[name] = true
				queue = append(queue, name)
			}
		}
	}
	var out []string
	for name := range bodies {
		if !reachable[name] && !docExempt[name] {
			out = append(out, fmt.Sprintf("%s:1: not reachable from README.md (no document on the README mention graph names it)", filepath.Join(root, name)))
		}
	}
	return out
}

// internalPackageDirs lists every directory under root/internal that
// contains at least one non-test Go file.
func internalPackageDirs(root string) ([]string, error) {
	var dirs []string
	base := filepath.Join(root, "internal")
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
