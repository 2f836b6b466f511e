package browsermetric

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists exported functions and methods under internal/
// that no non-test file names but that stay on purpose, keyed
// "pkg.Func" or "pkg.Type.Method", each with the reason it stays.
var uncalledAllowed = map[string]string{
	"obs.Tracer.Find":                   "trace read API that tests of other packages use",
	"obs.Tracer.FindOne":                "trace read API that tests of other packages use",
	"obs.Span.GetDur":                   "trace read API that tests of other packages use",
	"obs.Span.GetInt":                   "trace read API that tests of other packages use",
	"obs.Metrics.Gauge":                 "registry read API that tests of other packages use",
	"obs.Metrics.SketchCount":           "registry read API that tests of other packages use",
	"obs.Metrics.Hist":                  "registry read API that tests of other packages use",
	"obs.Metrics.FamiliesMissingHelp":   "registry read API that tests of other packages use",
	"obs.MergeSketches":                 "reference fold the fleetwire tests compare merged sketches against",
	"obs.bucketEdge.MarshalJSON":        "implements json.Marshaler, called by encoding/json",
	"arena.Arena.SetPoison":             "switches on the poison checks that arena-lifetime tests rely on",
	"tcpsim.Stack.LiveConns":            "conn-table read API for the TCP invariant hook",
	"tcpsim.Conn.LocalPort":             "connection read API for the TCP invariant hook",
	"tcpsim.Conn.RemotePort":            "connection read API for the TCP invariant hook",
	"tcpsim.Conn.Remote":                "connection read API for the TCP invariant hook",
	"tcpsim.Conn.Cwnd":                  "connection read API for the TCP invariant hook",
	"tcpsim.Stack.CloseListener":        "listener teardown for the TCP invariant hook",
	"testbed.Testbed.StartCrossTraffic": "drives BenchmarkAblation_CrossTraffic",
	"capture.Capture.Packets":           "decoded-frame view that the methods tests inspect",
	"stats.KSDifferent":                 "two-sample KS test the core tests use",
	"core.Experiment.HandshakeRounds":   "used by the facade's godoc Example",
	"httpsim.NewClientConn":             "client-side HTTP conn used by tests of two packages",
}

// TestInternalExportsHaveCallers fails when an exported function or
// method declared under internal/ is named by no non-test Go file of the
// repository (perfbench included) and is not on uncalledAllowed: code
// that only tests call belongs in a _test.go file or nowhere. It also
// fails on an allowlist entry that no longer names a declared function.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		key    string // allowlist key
		use    string // "p.F" for a function, "M" for a method
		method bool
		pos    token.Position
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg, ok := strings.CutPrefix(dir, "internal/")
		if !ok {
			return nil
		}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			declIdents[fn.Name] = true
			d := decl{key: pkg + "." + fn.Name.Name, use: filepath.Base(dir) + "." + fn.Name.Name,
				pos: fset.Position(fn.Name.Pos())}
			if fn.Recv != nil {
				d = decl{key: pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name, use: fn.Name.Name,
					method: true, pos: d.pos}
			}
			decls = append(decls, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A function of package p is named by a bare F in p's directory or a
	// qualified p.F anywhere; a method by any selector x.M or by an
	// interface method M that it may satisfy.
	sels := map[*ast.Ident]bool{}
	methodUses := map[string]int{}
	funcUses := map[string]int{} // "p.F"
	for _, f := range files {
		pkg := filepath.Base(filepath.Dir(fset.Position(f.Package).Filename))
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				sels[x.Sel] = true
				methodUses[x.Sel.Name]++
				if q, ok := x.X.(*ast.Ident); ok {
					funcUses[q.Name+"."+x.Sel.Name]++
				}
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						methodUses[id.Name]++
					}
				}
			case *ast.Ident:
				if !sels[x] && !declIdents[x] {
					funcUses[pkg+"."+x.Name]++
				}
			}
			return true
		})
	}

	declared := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		declared[d.key] = true
		uses := funcUses[d.use]
		if d.method {
			uses = methodUses[d.use]
		}
		if uses == 0 && uncalledAllowed[d.key] == "" {
			uncalled = append(uncalled, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is named by no non-test file: delete it, move it into a _test.go file, or allowlist it with a reason", u)
	}
	for key := range uncalledAllowed {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported function under internal/", key)
		}
	}
}

// recvType returns the base type name of a method receiver expression.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
