package browsermetric

import (
	"go/types"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// identRE matches the backticked names an inventory row may list: a
// top-level name or Type.Method.
var identRE = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)?$`)

// TestDesignInventoryMatchesTree fails when DESIGN.md §3's inventory
// leaves out a package directory under internal/ or cmd/, names a
// directory that holds no package, or lists in a row's contents column a
// backticked identifier that the row's package does not declare as a
// top-level name or Type.Method.
func TestDesignInventoryMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	rows := map[string]string{} // package dir -> contents column
	for _, line := range strings.Split(sec, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) != 5 {
			continue
		}
		dir := strings.Trim(strings.TrimSpace(cols[1]), "`")
		if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			rows[dir] = cols[3]
		}
	}

	pkgs := map[string]*types.Package{}
	var dirs []string
	for _, p := range loadRepo(t) {
		if strings.HasPrefix(p.dir, "internal/") || strings.HasPrefix(p.dir, "cmd/") {
			pkgs[p.dir] = p.pkg
			dirs = append(dirs, p.dir)
		}
	}
	slices.Sort(dirs)
	for _, dir := range dirs {
		pkg := pkgs[dir]
		contents, ok := rows[dir]
		if !ok {
			t.Errorf("DESIGN.md §3 has no row for %s", dir)
			continue
		}
		parts := strings.Split(contents, "`")
		for i := 1; i < len(parts); i += 2 {
			if name := parts[i]; identRE.MatchString(name) && !declares(pkg, name) {
				t.Errorf("DESIGN.md §3 row %s lists `%s`, which %s does not declare", dir, name, dir)
			}
		}
	}
	for dir := range rows {
		if pkgs[dir] == nil {
			t.Errorf("DESIGN.md §3 has a row for %s, which holds no package", dir)
		}
	}
}

// declares reports whether pkg declares name at top level or, for
// "Type.Method", declares the method on Type or *Type.
func declares(pkg *types.Package, name string) bool {
	typ, method, isMethod := strings.Cut(name, ".")
	obj := pkg.Scope().Lookup(typ)
	if !isMethod {
		return obj != nil
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, pkg, method)
	_, ok = m.(*types.Func)
	return ok
}
