// Command docscheck is the repository's dependency-free documentation
// linter, run by `make docs-check`. It walks every tracked Markdown file
// and verifies that
//
//   - relative links and images resolve to files or directories that
//     exist (external http(s) URLs and intra-document #anchors are
//     skipped — the check must pass offline);
//   - every `internal/...`, `cmd/...`, and `examples/...` path mentioned
//     in backticked inline code exists, so prose cannot drift from the
//     package layout it describes;
//   - every `Type.Name` in inline code (Type a root-package type, as in
//     `Config.Mode`) names a field or method, and every `aggview.Name` an
//     exported name, so prose cannot keep an API name a change deleted;
//   - every row of a fenced table in an EXPERIMENTS.md section such as
//     "## E3 — …" appears, trailing space ignored, in the section
//     "== E3: …" of aggbench_output.txt, so a quoted table cannot drift
//     from the run it quotes.
//
// It exits non-zero listing every broken reference.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// mdLink matches [text](target) and ![alt](target). Titles after the
// target ("... "title")") are cut when the target is split on whitespace.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// codePath matches backticked repo paths like `internal/matview` or
// `examples/matview/main.go` (a bare package dir or a file with an
// extension). Backticked code with spaces, slashes into generics, etc.
// will not match — only clean path-shaped tokens are checked.
var codePath = regexp.MustCompile("`((?:internal|cmd|examples)/[A-Za-z0-9_/.-]+)`")

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	api, qualName := parsePkg(root, ""), regexp.MustCompile(`\b(\w+)\.(\w+)`)
	var mds []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// Skip VCS internals; .github/ and .claude/ docs are checked.
			if name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(name), ".md") {
			mds = append(mds, path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}

	broken := 0
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
		// ROADMAP.md names future artifacts by design (packages that do
		// not exist yet), and ISSUE.md — the work order of the PR in
		// flight — names the files that PR is to create or delete; only
		// their links are checked, not code paths. CHANGES.md records deleted
		// names and bench/ changes only with the benchmark: no API names.
		base := filepath.Base(md)
		checkCode := base != "ROADMAP.md" && base != "ISSUE.md"
		checkNames := base != "CHANGES.md" && !strings.Contains("/"+filepath.ToSlash(md), "/bench/")
		for lineno, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if !checkTarget(filepath.Dir(md), target) {
					fmt.Fprintf(os.Stderr, "%s:%d: broken link %q\n", md, lineno+1, target)
					broken++
				}
			}
			if !checkCode {
				continue
			}
			for i, span := range strings.Split(line, "`") {
				if i%2 == 0 || !checkNames {
					continue // outside inline code
				}
				for _, m := range qualName.FindAllStringSubmatch(span, -1) {
					// Type.Name must be a closed type's member; aggview.Name, declared.
					ok := api.names[m[0]] || !api.names[m[1]] || api.open[m[1]] ||
						m[1] == "aggview" && (!ast.IsExported(m[2]) || api.names[m[2]])
					if !ok {
						fmt.Fprintf(os.Stderr, "%s:%d: API name %q does not exist\n", md, lineno+1, m[0])
						broken++
					}
				}
			}
			for _, m := range codePath.FindAllStringSubmatch(line, -1) {
				// Repo paths in prose are rooted at the repository, not at
				// the Markdown file's directory. A `pkg.Symbol` reference
				// resolves through its package directory (the part before
				// the final dot) when the full token is not itself a file.
				p := m[1]
				if _, err := os.Stat(filepath.Join(root, p)); err == nil {
					continue
				}
				if i := strings.LastIndexByte(p, '.'); i > 0 {
					if _, err := os.Stat(filepath.Join(root, p[:i])); err == nil {
						continue
					}
				}
				fmt.Fprintf(os.Stderr, "%s:%d: code reference %q does not exist\n", md, lineno+1, m[1])
				broken++
			}
		}
	}
	broken += checkTables(root)
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken reference(s) across %d Markdown file(s)\n", broken, len(mds))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d Markdown file(s) ok\n", len(mds))
}

// checkTables reports, and returns the number of, the rows of fenced
// blocks in EXPERIMENTS.md that are missing from the aggbench_output.txt
// section of the same experiment ID. A Markdown section "## ID — title"
// quotes the output section "== ID: title ==", which runs to the next
// "== " line; sections of other IDs, and a root without both files, are
// not checked.
func checkTables(root string) int {
	docPath := filepath.Join(root, "EXPERIMENTS.md")
	doc, err1 := os.ReadFile(docPath)
	out, err2 := os.ReadFile(filepath.Join(root, "aggbench_output.txt"))
	if err1 != nil || err2 != nil {
		return 0
	}
	rows := map[string]map[string]bool{} // experiment ID -> its output lines
	var cur map[string]bool
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimRight(line, " \t\r")
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ := strings.Cut(rest, ":")
			cur = map[string]bool{}
			rows[id] = cur
			continue
		}
		if cur != nil {
			cur[line] = true
		}
	}
	missing := 0
	var want map[string]bool // the output section of the current heading
	fenced := false
	for lineno, line := range strings.Split(string(doc), "\n") {
		line = strings.TrimRight(line, " \t\r")
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case fenced:
			if want != nil && line != "" && !want[line] {
				fmt.Fprintf(os.Stderr, "%s:%d: row not in aggbench_output.txt: %q\n", docPath, lineno+1, line)
				missing++
			}
		case strings.HasPrefix(line, "## "):
			id, _, _ := strings.Cut(strings.TrimPrefix(line, "## "), " ")
			want = rows[id]
		}
	}
	return missing
}

// checkTarget reports whether one markdown link target resolves. External
// URLs and pure anchors pass unchecked; relative targets (with any
// #fragment cut) must exist on disk relative to the file's directory.
func checkTarget(dir, target string) bool {
	switch {
	case strings.HasPrefix(target, "http://"),
		strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"),
		strings.HasPrefix(target, "#"):
		return true
	}
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
	}
	if target == "" {
		return true
	}
	_, err := os.Stat(filepath.Join(dir, target))
	return err == nil
}

// pkgAPI is a package's names: its declarations, and each type's fields and
// methods as "Type.Name". Names under an open qualifier (a function or
// variable, a struct embedding a field, an alias not followed) pass.
type pkgAPI struct{ names, open map[string]bool }

// parsePkg reads the non-test Go files of the package at rel under the
// module root; the root package's ("") aliases are followed one import hop.
func parsePkg(root, rel string) *pkgAPI {
	p := &pkgAPI{names: map[string]bool{}, open: map[string]bool{}}
	files, _ := filepath.Glob(filepath.Join(root, rel, "*.go"))
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil || strings.HasSuffix(file, "_test.go") {
			continue
		}
		p.names[f.Name.Name] = true
		imports := map[string]string{} // package name → directory under the root
		for _, im := range f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			_, imports[filepath.Base(path)], _ = strings.Cut(path, "/")
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name := fn.Name.Name
				if fn.Recv != nil {
					name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + name
				}
				p.names[name], p.open[name] = true, true
				continue
			}
			for _, spec := range decl.(*ast.GenDecl).Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						p.names[id.Name], p.open[id.Name] = true, true
					}
				case *ast.TypeSpec:
					name := s.Name.Name
					p.names[name], p.open[name] = true, s.Assign.IsValid()
					if sel, ok := s.Type.(*ast.SelectorExpr); ok && p.open[name] && rel == "" {
						if dir := imports[types.ExprString(sel.X)]; dir != "" {
							t, to := parsePkg(root, dir), sel.Sel.Name
							p.open[name] = !t.names[to] || t.open[to]
							for k := range t.names {
								if m, ok := strings.CutPrefix(k, to+"."); ok {
									p.names[name+"."+m] = true
								}
							}
						}
					} else if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							p.open[name] = p.open[name] || len(fld.Names) == 0
							for _, id := range fld.Names {
								p.names[name+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return p
}
