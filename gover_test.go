package browsermetric

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestStdlibSymbolsWithinGoVersion fails when any package of the
// repository, test files included, uses a standard-library symbol that
// is newer than the go line of go.mod: one that $(go env GOROOT)/api
// lists in go1.N.txt for N above that line. The toolchain compiles such
// code, and go vet accepts it, but a toolchain at the declared version
// does not build it.
func TestStdlibSymbolsWithinGoVersion(t *testing.T) {
	minor := goModMinor(t, "go.mod")
	newer := newerStdSymbols(t, minor)
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
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// In-package test files join their package, so other packages
		// are checked against the superset; an external test package is
		// a package of its own.
		key := filepath.ToSlash(filepath.Clean(dir))
		if strings.HasSuffix(f.Name.Name, "_test") {
			key += "_test"
		}
		dirs[key] = append(dirs[key], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := checkPackages(fset, "github.com/browsermetric/browsermetric", dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range newerStdUses(pkgs, newer) {
		t.Errorf("%s: go.mod says go 1.%d", u, minor)
	}
}

// TestNewerStdUsesFindsBoth checks newerStdUses on in-memory source: a
// Go 1.24 function (strings.SplitSeq) and a Go 1.24 method promoted to
// testing.T (Chdir) are found, a Go 1.0 function is not.
func TestNewerStdUsesFindsBoth(t *testing.T) {
	if !slices.Contains(build.Default.ReleaseTags, "go1.24") {
		t.Skip("the toolchain predates go1.24, whose symbols the source uses")
	}
	src := map[string]string{
		"internal/a": `package a
import "strings"
func Fields(s string) (n int) {
	for range strings.SplitSeq(s, ",") {
		n++
	}
	return n + len(strings.Split(s, ","))
}
`,
		"internal/a_test": `package a_test
import "testing"
func TestX(t *testing.T) { t.Chdir(".") }
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
	got := newerStdUses(pkgs, newerStdSymbols(t, 22))
	want := []string{
		"internal/a/x.go:4:20: strings.SplitSeq is go1.24",
		"internal/a_test/x.go:3:30: testing.T.Chdir is go1.24",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("newerStdUses =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// goModMinor returns N of the "go 1.N" line of the go.mod file at path.
func goModMinor(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^go 1\.(\d+)`).FindSubmatch(b)
	if m == nil {
		t.Fatalf("%s has no go 1.N line", path)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// apiLine matches the api/go1.N.txt entries that name a symbol: a
// function, a method, a struct field or interface method added to a
// type, a type, a constant or a variable, keyed as "pkg.Name" or
// "pkg.Type.Member".
var apiLine = regexp.MustCompile(`^pkg ([^ ,]+)(?: \([^)]*\))?, (?:func (\w+)|method \(\*?(\w+)(?:\[[^\]]*\])?\) (\w+)|type (\w+)(?:\[[^\]]*\])? (?:struct|interface), (\w+)|type (\w+)|const (\w+)|var (\w+))`)

// newerStdSymbols returns the standard-library symbols that the
// toolchain's api/go1.N.txt files list for N above minor, each mapped to
// the release that added it.
func newerStdSymbols(t *testing.T, minor int) map[string]string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatalf("go env GOROOT: %v", err)
	}
	api := filepath.Join(strings.TrimSpace(string(out)), "api")
	if _, err := os.Stat(filepath.Join(api, fmt.Sprintf("go1.%d.txt", minor))); err != nil {
		t.Fatalf("the toolchain's API lists: %v", err)
	}
	newer := map[string]string{}
	for n := minor + 1; ; n++ {
		release := fmt.Sprintf("go1.%d", n)
		f, err := os.Open(filepath.Join(api, release+".txt"))
		if os.IsNotExist(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			m := apiLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			pkg, key := m[1], ""
			switch {
			case m[2] != "":
				key = m[2]
			case m[4] != "":
				key = m[3] + "." + m[4]
			case m[6] != "":
				key = m[5] + "." + m[6]
			default:
				key = m[7] + m[8] + m[9]
			}
			newer[pkg+"."+key] = release
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return newer
}

// newerStdUses returns, sorted by position, every use in pkgs of a
// standard-library symbol in newer. A method or field is looked up under
// the type it is selected on and under the type that declares it, so a
// method promoted to testing.T from an unexported embedded type is found
// the way the api files list it.
func newerStdUses(pkgs []*repoPkg, newer map[string]string) []string {
	var found []string
	report := func(p *repoPkg, pos token.Pos, keys ...string) {
		for _, k := range keys {
			if rel, ok := newer[k]; ok {
				found = append(found, fmt.Sprintf("%s: %s is %s", p.fset.Position(pos), k, rel))
				return
			}
		}
	}
	for _, p := range pkgs {
		for sel, s := range p.info.Selections {
			obj := s.Obj()
			if obj.Pkg() == nil || isRepoPath(obj.Pkg().Path()) {
				continue
			}
			report(p, sel.Sel.Pos(), typeKey(s.Recv(), obj.Name()), declKey(obj))
		}
		for id, obj := range p.info.Uses {
			if obj.Pkg() == nil || isRepoPath(obj.Pkg().Path()) || obj.Parent() != obj.Pkg().Scope() {
				continue
			}
			report(p, id.Pos(), obj.Pkg().Path()+"."+obj.Name())
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != nil && !isRepoPath(v.Pkg().Path()) {
								report(p, id.Pos(), typeKey(p.info.Types[lit].Type, id.Name))
							}
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(found)
	return found
}

// isRepoPath reports whether path is a package of this repository (or of
// the in-memory module "m" the tests check).
func isRepoPath(path string) bool {
	return path == "m" || strings.HasPrefix(path, "m/") || strings.HasPrefix(path, "github.com/browsermetric/browsermetric")
}

// typeKey returns "pkg.Type.name" for a member of the named type t (or
// of the type t points to), or "" when t is not named.
func typeKey(t types.Type, name string) string {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + name
}

// declKey returns the key of a method under its declared receiver type,
// or "" for anything else.
func declKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	return typeKey(recv.Type(), fn.Name())
}
