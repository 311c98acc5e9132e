package dnsnoise_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist holds the exported names under internal/ that no program
// calls and that stay anyway, each with its reason. A name is spelled as
// the gate reports it.
var exportAllowlist = map[string]string{
	"dntree.(*Node).Name":                "core's tests name the zones a re-score mined, and the tree's copy of a name, by their handles; core itself keeps zones by handle",
	"pdns.(*Store).Records":              "fleet.TestFleetMatchesSingleCluster holds a fleet's merged rpDNS store to a single cluster's record by record, from outside the package",
	"resolver.(*Cluster).PerServerStats": "experiments.TestParallelDayMatchesSequential holds each server's counters, sequential against parallel, on a sim day, from outside the package",
	"slab.(*Index).Buckets":              "the yardstick of cache.TestIndexFlatUnderChurn: the index's size is what that heap guard asserts",
}

// TestExportsHaveCallers holds internal/ to its callers: every exported
// package-level func, type, const or var, and every exported method,
// declared in a non-test file under internal/ must be used by non-test
// code of the module (internal/, cmd/, benchmark/, examples/ or the root
// package). Exempt are struct fields (encoding/json reads some by
// reflection), a method of a type that implements an interface declaring
// it (named or literal, of the module or of a package it imports), and the
// names on exportAllowlist. Packages are type-checked with go/types in
// dependency order, each importing the module packages checked before it;
// the standard library comes from its source in GOROOT.
func TestExportsHaveCallers(t *testing.T) {
	const module = "dnsnoise"
	fset := token.NewFileSet()
	dirs := map[string]*build.Package{} // import path → its non-test files
	for _, root := range []string{".", "internal", "cmd", "benchmark", "examples"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case !d.IsDir():
				return nil
			case d.Name() == "testdata" || (root == "." && dir != "."):
				return filepath.SkipDir
			}
			bp, err := build.Default.ImportDir(dir, 0)
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			} else if err != nil {
				return err
			}
			path := module
			if dir != "." {
				path += "/" + filepath.ToSlash(dir)
			}
			dirs[path] = bp
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	imp := &moduleImporter{
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	var check func(path string)
	check = func(path string) {
		if _, done := imp.checked[path]; done {
			return
		}
		imp.checked[path] = nil // a cycle would fail the type check below
		bp := dirs[path]
		for _, dep := range bp.Imports {
			if _, ok := dirs[dep]; ok {
				check(dep)
			}
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		imp.checked[path] = pkg
	}
	paths := make([]string, 0, len(dirs))
	for path := range dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		check(path)
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	ifaces := interfaces(imp.checked, info.Defs)

	found := map[string]bool{}
	declared := 0
	for _, path := range paths {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		pkg := imp.checked[path]
		short := strings.TrimPrefix(path, module+"/internal/")
		report := func(obj types.Object, name string) {
			declared++
			if !used[obj] {
				found[name] = true
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || (!used[m] && implementsOne(m, ifaces)) {
					continue
				}
				recv := named.Obj().Name()
				if _, ptr := m.Signature().Recv().Type().(*types.Pointer); ptr {
					recv = "*" + recv
				}
				report(m, fmt.Sprintf("%s.(%s).%s", short, recv, m.Name()))
			}
		}
	}

	var unused []string
	for name := range found {
		if _, ok := exportAllowlist[name]; !ok {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported and no non-test code uses it: delete it, move it into a _test.go file, or allowlist it with a reason", name)
	}
	for name := range exportAllowlist {
		if !found[name] {
			t.Errorf("allowlisted %s is declared and used, or not declared: drop it from exportAllowlist", name)
		}
	}
	t.Logf("%d exported names under internal/ checked, %d allowlisted", declared, len(exportAllowlist))
	// A broken walk must not pass by checking nothing.
	if declared < 500 {
		t.Errorf("only %d exported names checked under internal/, want at least 500", declared)
	}
}

// moduleImporter hands out the module packages already checked, and the
// standard library from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// interfaces is every method-set interface the module declares, named or
// literal, and every package-level one of the packages it imports.
func interfaces(pkgs map[string]*types.Package, defs map[*ast.Ident]types.Object) []*types.Interface {
	var all []*types.Interface
	seen := map[types.Type]bool{}
	add := func(typ types.Type) {
		iface, ok := typ.Underlying().(*types.Interface)
		if !ok || seen[typ] || !iface.IsMethodSet() {
			return
		}
		if named, ok := typ.(*types.Named); ok && named.TypeParams() != nil {
			return // uninstantiated: no type implements it as it stands
		}
		seen[typ] = true
		all = append(all, iface)
	}
	for _, obj := range defs {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil {
				add(recv.Type()) // a method of an interface receives the interface
			}
		}
	}
	walked := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if walked[pkg] {
			return
		}
		walked[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		walk(pkg)
	}
	return all
}

// implementsOne reports whether m's receiver type, or a pointer to it,
// implements an interface that declares a method of m's name. A generic
// type implements only as instantiated, so for its methods an interface
// method of the same name and signature is enough.
func implementsOne(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Signature().Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	generic := recv.(*types.Named).TypeParams() != nil
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			switch {
			case im.Name() != m.Name():
			case generic:
				if types.Identical(im.Type(), m.Type()) {
					return true
				}
			case types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface):
				return true
			}
		}
	}
	return false
}
