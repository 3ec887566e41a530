package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions and methods of internal/
// that no non-test code calls, each with the reason it stays.
var uncalledAllowed = map[string]string{
	"exec.Naive":             "the row-at-a-time oracle the differential tests compare the executor with",
	"exec.mergeHeap.Less":    "container/heap calls it through heap.Interface",
	"exec.mergeHeap.Pop":     "container/heap calls it through heap.Interface",
	"exec.mergeHeap.Push":    "container/heap calls it through heap.Interface",
	"exec.mergeHeap.Swap":    "container/heap calls it through heap.Interface",
	"expr.BoolLit":           "a literal constructor other packages' tests build expressions with",
	"expr.Col":               "the column constructor other packages' tests build expressions with",
	"expr.FloatLit":          "a literal constructor other packages' tests build expressions with",
	"expr.StrLit":            "a literal constructor other packages' tests build expressions with",
	"obs.OpStats.PagesTotal": "public: aggview.OpMetrics is this type",
}

// TestEveryInternalNameHasACaller fails when an exported function or method
// declared in internal/ has no caller in the module's non-test Go outside
// its own declaration; bench/ counts as a caller. A name only tests need
// belongs in its package's export_test.go, or in uncalledAllowed with a
// reason. A function is called when its package's code names it or another
// package's code selects it through an import of its package. A method is
// matched by name alone, since without type information a call through an
// interface cannot be told from a direct one: it is called when any
// selector of its name is.
func TestEveryInternalNameHasACaller(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	dirOf := map[*ast.File]string{} // the file's package, as an import path below the module
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "aggview"
		if rel, _ := filepath.Rel(root, filepath.Dir(path)); rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		files, dirOf[f] = append(files, f), pkg
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every use of a name, with the top-level declaration it appears in:
	// bare identifiers per package, package selectors per imported package,
	// and selectors of any other value by name alone.
	type use struct{ pkg, name string }
	bare, qualified := map[use]map[ast.Decl]bool{}, map[use]map[ast.Decl]bool{}
	selected := map[string]map[ast.Decl]bool{}
	note := func(m map[use]map[ast.Decl]bool, u use, in ast.Decl) {
		if m[u] == nil {
			m[u] = map[ast.Decl]bool{}
		}
		m[u][in] = true
	}
	for _, f := range files {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		for _, decl := range f.Decls {
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						note(qualified, use{imports[id.Name], x.Sel.Name}, decl)
						return false
					}
					if selected[x.Sel.Name] == nil {
						selected[x.Sel.Name] = map[ast.Decl]bool{}
					}
					selected[x.Sel.Name][decl] = true
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					note(bare, use{dirOf[f], x.Name}, decl)
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
	}
	// elsewhere reports whether a use lies outside the declaration decl.
	elsewhere := func(in map[ast.Decl]bool, decl ast.Decl) bool {
		return len(in) > 1 || len(in) == 1 && !in[decl]
	}

	var uncalled []string
	for _, f := range files {
		pkg := dirOf[f]
		if !strings.HasPrefix(pkg, "aggview/internal/") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := f.Name.Name + "." + fn.Name.Name
			called := elsewhere(bare[use{pkg, fn.Name.Name}], fn) || elsewhere(qualified[use{pkg, fn.Name.Name}], fn)
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				name = f.Name.Name + "." + recv.(*ast.Ident).Name + "." + fn.Name.Name
				called = elsewhere(selected[fn.Name.Name], fn)
			}
			if _, ok := uncalledAllowed[name]; !ok && !called {
				uncalled = append(uncalled, name)
			}
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s: no non-test caller (move it into export_test.go, delete it, or allow it with a reason)", name)
	}
}
