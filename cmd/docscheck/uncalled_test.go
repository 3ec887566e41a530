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

// uncalledAllowed lists the exported names of internal/ that no non-test
// code uses, each with the reason it stays.
var uncalledAllowed = map[string]string{
	"exec.Naive":                  "the row-at-a-time oracle the differential tests compare the executor with",
	"exec.mergeHeap.Less":         "container/heap calls it through heap.Interface",
	"exec.mergeHeap.Pop":          "container/heap calls it through heap.Interface",
	"exec.mergeHeap.Push":         "container/heap calls it through heap.Interface",
	"exec.mergeHeap.Swap":         "container/heap calls it through heap.Interface",
	"expr.BoolLit":                "a literal constructor other packages' tests build expressions with",
	"expr.Col":                    "the column constructor other packages' tests build expressions with",
	"expr.FloatLit":               "a literal constructor other packages' tests build expressions with",
	"expr.StrLit":                 "a literal constructor other packages' tests build expressions with",
	"obs.OpStats.PagesTotal":      "public: aggview.OpMetrics is this type",
	"storage.Store.ClearFault":    "the root package's fault hooks (export_test.go) call it",
	"storage.Store.FaultIOCount":  "the root package's fault hooks (export_test.go) call it",
	"storage.Store.InjectFault":   "the root package's fault hooks (export_test.go) call it",
	"storage.Store.LiveTempFiles": "the root package's fault hooks (export_test.go) call it",
	"wal.Log.InjectCrash":         "the root package's crash hook (export_test.go) calls it",
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
	m := loadModule(t)
	var uncalled []string
	for _, f := range m.files {
		pkg := m.pkgOf[f]
		if !strings.HasPrefix(pkg, "aggview/internal/") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			called := elsewhere(m.bare[use{pkg, fn.Name.Name}], fn) || elsewhere(m.qualified[use{pkg, fn.Name.Name}], fn)
			if fn.Recv != nil {
				called = elsewhere(m.selected[fn.Name.Name], fn)
			}
			if name := declName(f, fn); !called {
				if _, ok := uncalledAllowed[name]; !ok {
					uncalled = append(uncalled, name)
				}
			}
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s: no non-test caller (move it into export_test.go, delete it, or allow it with a reason)", name)
	}
}

// TestEveryInternalNameIsUsed fails when an exported type, constant or
// variable declared in internal/, or an exported field of a struct type
// declared there, has no use in the module's non-test Go outside its own
// declaration; bench/ counts as a user. Types, constants and variables are
// matched as TestEveryInternalNameHasACaller matches functions: by a bare
// use in their package or a qualified one elsewhere. A field is matched by
// name alone, as a method is: it is used when any selector or
// composite-literal key of its name is. The names uncalledAllowed lists
// are exempt.
func TestEveryInternalNameIsUsed(t *testing.T) {
	m := loadModule(t)
	var unused []string
	for _, f := range m.files {
		pkg := m.pkgOf[f]
		if !strings.HasPrefix(pkg, "aggview/internal/") {
			continue
		}
		report := func(used bool, name string) {
			if _, ok := uncalledAllowed[name]; !used && !ok {
				unused = append(unused, name)
			}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				var names []*ast.Ident
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								if id.IsExported() {
									report(elsewhere(m.selected[id.Name], spec) || elsewhere(m.keyed[id.Name], spec),
										f.Name.Name+"."+s.Name.Name+"."+id.Name)
								}
							}
						}
					}
				case *ast.ValueSpec:
					names = s.Names
				}
				for _, id := range names {
					if id.IsExported() {
						report(elsewhere(m.bare[use{pkg, id.Name}], spec) || elsewhere(m.qualified[use{pkg, id.Name}], spec),
							f.Name.Name+"."+id.Name)
					}
				}
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: no non-test use (delete it, or allow it with a reason)", name)
	}
}

// rootAllowed lists the exported functions and methods of the root package
// that no non-test Go outside the root directory calls, each with the
// passage of doc.go or README.md that presents it to users.
var rootAllowed = map[string]string{
	"aggview.BoolValue":             "README's §2 row for user-defined aggregates: an Accumulator returns Values",
	"aggview.Engine.QueryRows":      "doc.go's Observability section and README's streaming-rows example",
	"aggview.Engine.SetMetricsSink": "doc.go's Observability section and README's metrics passage",
	"aggview.FloatValue":            "README's §2 row for user-defined aggregates: an Accumulator returns Values",
	"aggview.IntValue":              "README's §2 row for user-defined aggregates: an Accumulator returns Values",
	"aggview.NullValue":             "README's §2 row for user-defined aggregates: an Accumulator returns Values",
	"aggview.RegisterAggregate":     "README's §2 row for user-defined aggregates",
	"aggview.Stmt.QueryRows":        "the prepared statement's streaming door beside Engine.QueryRows, in DESIGN.md's table of doors",
	"aggview.StringValue":           "README's §2 row for user-defined aggregates: an Accumulator returns Values",
	"aggview.WithLimits":            "doc.go's quickstart and Governance section and README's limits example",
}

// TestEveryRootNameHasACaller fails when an exported function or method
// declared in the root package has no caller in the module's non-test Go
// outside the root directory: examples/, cmd/, internal/ and bench/. The
// root package's own code does not count, so a name only its tests need
// belongs in export_test.go, or in rootAllowed with the documentation that
// presents it. Functions and methods are matched as in
// TestEveryInternalNameHasACaller.
func TestEveryRootNameHasACaller(t *testing.T) {
	m := loadModule(t)
	var uncalled []string
	for _, f := range m.files {
		if m.pkgOf[f] != "aggview" {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			called := len(m.qualified[use{"aggview", fn.Name.Name}]) > 0
			if fn.Recv != nil {
				called = false
				for in := range m.selected[fn.Name.Name] {
					called = called || m.declPkg[in] != "aggview"
				}
			}
			if name := declName(f, fn); !called {
				if _, ok := rootAllowed[name]; !ok {
					uncalled = append(uncalled, name)
				}
			}
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s: no caller outside the root package (move it into export_test.go, delete it, or allow it with the passage that documents it)", name)
	}
}

// A use is a name as some package's code refers to it.
type use struct{ pkg, name string }

// module is the module's non-test Go, bench/ included, with every use of a
// name recorded against the declaration it appears in, a function or one
// spec of a type, const or var declaration: bare identifiers per package,
// package selectors per imported package, and selectors of any other value
// and composite-literal keys by name alone.
type module struct {
	files           []*ast.File
	pkgOf           map[*ast.File]string // the file's package, as an import path below the module
	declPkg         map[ast.Node]string  // the package of a declaration
	bare, qualified map[use]map[ast.Node]bool
	selected, keyed map[string]map[ast.Node]bool
}

// loadModule parses the module's non-test Go outside testdata/ and dot
// directories and indexes its uses.
func loadModule(t *testing.T) *module {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	m := &module{
		pkgOf:     map[*ast.File]string{},
		declPkg:   map[ast.Node]string{},
		bare:      map[use]map[ast.Node]bool{},
		qualified: map[use]map[ast.Node]bool{},
		selected:  map[string]map[ast.Node]bool{},
		keyed:     map[string]map[ast.Node]bool{},
	}
	fset := token.NewFileSet()
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
		m.files, m.pkgOf[f] = append(m.files, f), pkg
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range m.files {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		var decls []ast.Node
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					decls = append(decls, spec)
				}
			} else {
				decls = append(decls, decl)
			}
		}
		for _, decl := range decls {
			m.declPkg[decl] = m.pkgOf[f]
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						note(m.qualified, use{imports[id.Name], x.Sel.Name}, decl)
						return false
					}
					note(m.selected, x.Sel.Name, decl)
					ast.Inspect(x.X, visit)
					return false
				case *ast.CompositeLit:
					for _, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								note(m.keyed, id.Name, decl)
							}
						}
					}
				case *ast.Ident:
					note(m.bare, use{m.pkgOf[f], x.Name}, decl)
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
	}
	return m
}

// note records a use of k in the declaration decl.
func note[K comparable](in map[K]map[ast.Node]bool, k K, decl ast.Node) {
	if in[k] == nil {
		in[k] = map[ast.Node]bool{}
	}
	in[k][decl] = true
}

// elsewhere reports whether a use lies outside the declaration decl.
func elsewhere(in map[ast.Node]bool, decl ast.Node) bool {
	return len(in) > 1 || len(in) == 1 && !in[decl]
}

// declName names a function as pkg.Func and a method as pkg.Type.Method.
func declName(f *ast.File, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return f.Name.Name + "." + fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ix.X
	}
	return f.Name.Name + "." + recv.(*ast.Ident).Name + "." + fn.Name.Name
}
