package browsermetric

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// uncalledAllowed lists exported functions and methods under internal/
// that no non-test code uses but that stay on purpose, keyed "pkg.Func"
// or "pkg.Type.Method", each with the reason it stays.
var uncalledAllowed = map[string]string{
	"obs.Tracer.Find":                   "trace read API that tests of other packages use",
	"obs.Tracer.FindOne":                "trace read API that tests of other packages use",
	"obs.Span.GetDur":                   "trace read API that tests of other packages use",
	"obs.Span.GetInt":                   "trace read API that tests of other packages use",
	"obs.Metrics.Gauge":                 "registry read API that tests of other packages use",
	"obs.Metrics.SketchCount":           "registry read API that tests of other packages use",
	"obs.Metrics.FamiliesMissingHelp":   "registry read API that tests of other packages use",
	"obs.MergeSketches":                 "reference fold the fleetwire tests compare merged sketches against",
	"arena.Arena.SetPoison":             "switches on the poison checks that arena-lifetime tests rely on",
	"tcpsim.Stack.SetPoison":            "switches on the poison checks that the connection-recycling tests rely on",
	"tcpsim.Stack.LiveConns":            "conn-table read API for the TCP invariant hook",
	"testbed.Testbed.StartCrossTraffic": "drives BenchmarkAblation_CrossTraffic",
	"capture.Capture.Packets":           "decoded-frame view that the methods tests inspect",
	"stats.KSDifferent":                 "two-sample KS test the core tests use",
	"core.Experiment.HandshakeRounds":   "used by the facade's godoc Example",
	"httpsim.NewClientConn":             "client-side HTTP conn used by tests of two packages",
	"eventsim.Simulator.Run":            "drains the event queue for the substrate tests of four packages",
	"netsim.TrafficGen.Stop":            "stops the generators StartCrossTraffic starts, for the cross-traffic tests of two packages",
	"stats.CDF.At":                      "ECDF evaluation, public through the root package's CDF alias",
	"fleet.Registry.End":                "explicit session teardown that the session tests pin; binaries rely on the idle expiry in FanIn",
	"browser.Profile.MedianOverhead":    "calibration oracle that the calibration tests of seven files compare against",
}

// TestInternalExportsHaveCallers fails when an exported function or
// method declared under internal/ has no use in the repository's
// non-test code (perfbench included) and is not on uncalledAllowed:
// code that only tests call belongs in a _test.go file or nowhere. It
// also fails on an allowlist entry that names no declared function or
// one that has a use, so every entry stays true.
func TestInternalExportsHaveCallers(t *testing.T) {
	pkgs := loadRepo(t)
	used := usedFuncs(pkgs)
	declared := map[string]bool{}
	for _, p := range pkgs {
		pkg, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, dl := range f.Decls {
				fn, ok := dl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				declared[key] = true
				obj := p.info.Defs[fn.Name].(*types.Func)
				pos := p.fset.Position(fn.Name.Pos())
				switch why := uncalledAllowed[key]; {
				case !used[obj] && why == "":
					t.Errorf("%s: %s has no use in non-test code: delete it, move it into a _test.go file, or allowlist it with a reason", pos, key)
				case used[obj] && why != "":
					t.Errorf("%s: %s is allowlisted (%q) but non-test code uses it: drop the entry", pos, key, why)
				}
			}
		}
	}
	for key := range uncalledAllowed {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported function under internal/", key)
		}
	}
}

// TestInternalOptionsHaveSetters fails when an exported field of a
// *Config or *Options struct type under internal/ is written by no
// non-test code outside the type's own package, as a composite-literal
// key or an assignment: a knob that only defaulting and tests touch is a
// constant. Types that the root package aliases are public API and are
// skipped.
func TestInternalOptionsHaveSetters(t *testing.T) {
	pkgs := loadRepo(t)
	public := map[*types.TypeName]bool{}
	for _, p := range pkgs {
		if p.dir != "." {
			continue
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					public[n.Obj()] = true
				}
			}
		}
	}
	set := fieldWrites(pkgs)
	var unset []string
	for _, p := range pkgs {
		pkg, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || public[tn] || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					unset = append(unset, fmt.Sprintf("%s: %s.%s.%s", p.fset.Position(f.Pos()), pkg, name, f.Name()))
				}
			}
		}
	}
	for _, u := range unset {
		t.Errorf("%s is set by no non-test code outside its package: make it a constant", u)
	}
}

// TestCallerMatcherUsesReceiverTypes checks usedFuncs on in-memory
// source: a same-named method of another type or a struct field named
// like a method is not a use, a call through an interface the type
// satisfies is.
func TestCallerMatcherUsesReceiverTypes(t *testing.T) {
	src := map[string]string{
		"internal/a": `package a
type T struct{}
func (T) Ping() {}
func (T) Pong() {}
func (*T) Kick() {}
type U struct{}
func (U) Ping() {}
type S struct{ Pong int }
type Kicker interface{ Kick() }
`,
		"cmd/x": `package main
import "m/internal/a"
func main() {
	a.U{}.Ping()
	_ = a.S{}.Pong
	var k a.Kicker = &a.T{}
	k.Kick()
}
`,
	}
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{}
	for dir, s := range src {
		f, err := parser.ParseFile(fset, dir+"/x.go", s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dirs[dir] = []*ast.File{f}
	}
	pkgs, err := checkPackages(fset, "m", dirs)
	if err != nil {
		t.Fatal(err)
	}
	used := usedFuncs(pkgs)
	scope := pkgs[0].pkg.Scope()
	method := func(typ, name string) *types.Func {
		obj, _, _ := types.LookupFieldOrMethod(scope.Lookup(typ).Type(), true, pkgs[0].pkg, name)
		return obj.(*types.Func)
	}
	for _, c := range []struct {
		typ, name string
		want      bool
	}{
		{"T", "Ping", false}, // only U.Ping is called
		{"U", "Ping", true},
		{"T", "Pong", false}, // only the field S.Pong is selected
		{"T", "Kick", true},  // *T satisfies Kicker
	} {
		if got := used[method(c.typ, c.name)]; got != c.want {
			t.Errorf("%s.%s used = %v, want %v", c.typ, c.name, got, c.want)
		}
	}
}

// repoPkg is one type-checked package of non-test files.
type repoPkg struct {
	dir   string // slash path relative to the repository root
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

var repoOnce = sync.OnceValues(func() ([]*repoPkg, error) {
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(filepath.Clean(dir))
		dirs[key] = append(dirs[key], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return checkPackages(fset, "github.com/browsermetric/browsermetric", dirs)
})

// loadRepo type-checks every non-test package of the repository,
// perfbench included, once per test binary.
func loadRepo(t *testing.T) []*repoPkg {
	t.Helper()
	pkgs, err := repoOnce()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// checkPackages type-checks the packages of dirs (keyed by slash path
// under module) in import order, serving module imports from the
// checked results and the standard library from its export data. It
// returns them in that order.
func checkPackages(fset *token.FileSet, module string, dirs map[string][]*ast.File) ([]*repoPkg, error) {
	importPath := func(dir string) string {
		if dir == "." {
			return module
		}
		return path.Join(module, dir)
	}
	byPath := map[string]string{} // import path -> dir
	names := make([]string, 0, len(dirs))
	for dir := range dirs {
		byPath[importPath(dir)] = dir
		names = append(names, dir)
	}
	sort.Strings(names)
	var order []string
	state := map[string]int{} // 1 visiting, 2 done
	var visit func(dir string) error
	visit = func(dir string) error {
		switch state[dir] {
		case 1:
			return fmt.Errorf("import cycle through %s", dir)
		case 2:
			return nil
		}
		state[dir] = 1
		for _, f := range dirs[dir] {
			for _, im := range f.Imports {
				if dep, ok := byPath[strings.Trim(im.Path.Value, `"`)]; ok {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[dir] = 2
		order = append(order, dir)
		return nil
	}
	for _, dir := range names {
		if err := visit(dir); err != nil {
			return nil, err
		}
	}

	imp := repoImporter{pkgs: map[string]*types.Package{}, std: importer.Default()}
	var pkgs []*repoPkg
	for _, dir := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(importPath(dir), fset, dirs[dir], info)
		if err != nil {
			return nil, err
		}
		imp.pkgs[pkg.Path()] = pkg
		pkgs = append(pkgs, &repoPkg{dir: dir, fset: fset, files: dirs[dir], pkg: pkg, info: info})
	}
	return pkgs, nil
}

type repoImporter struct {
	pkgs map[string]*types.Package
	std  types.Importer
}

func (r repoImporter) Import(path string) (*types.Package, error) {
	if p := r.pkgs[path]; p != nil {
		return p, nil
	}
	return r.std.Import(path)
}

// implicitIfaces are standard-library interfaces that the standard
// library calls through without the caller naming them.
var implicitIfaces = [][2]string{
	{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "WriterTo"}, {"io", "ReaderFrom"},
	{"net/http", "Handler"}, {"sort", "Interface"},
}

// usedFuncs returns the functions and methods that the packages' code
// uses: named in an expression (a call, a method value, a selection on
// its receiver type), or a method of a type that implements an
// interface the code names, error, or one of implicitIfaces.
func usedFuncs(pkgs []*repoPkg) map[*types.Func]bool {
	used := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	var named []types.Type
	imported := map[string]*types.Package{}
	for _, p := range pkgs {
		for _, im := range p.pkg.Imports() {
			imported[im.Path()] = im
		}
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				used[o.Origin()] = true
			case *types.TypeName:
				if it, ok := o.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				ifaces[tv.Type.Underlying().(*types.Interface)] = true
			}
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	for _, pn := range implicitIfaces {
		if p := imported[pn[0]]; p != nil {
			if tn, ok := p.Scope().Lookup(pn[1]).(*types.TypeName); ok {
				ifaces[tn.Type().Underlying().(*types.Interface)] = true
			}
		}
	}
	for it := range ifaces {
		if it.NumMethods() == 0 || !it.IsMethodSet() {
			continue
		}
		for _, n := range named {
			ptr := types.NewPointer(n)
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[obj.(*types.Func)] = true
				}
			}
		}
	}
	return used
}

// fieldWrites returns the struct fields that each package writes in
// another package's struct: a composite-literal element (keyed or
// positional), an assignment or an increment.
func fieldWrites(pkgs []*repoPkg) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		mark := func(v *types.Var) {
			if v != nil && v.IsField() && v.Pkg() != p.pkg {
				set[v.Origin()] = true
			}
		}
		lhs := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				v, _ := p.info.Uses[sel.Sel].(*types.Var)
				mark(v)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.info.Types[x].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							v, _ := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							mark(v)
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, e := range x.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(x.X)
				}
				return true
			})
		}
	}
	return set
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
