package dnsnoise_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignNamesResolve holds DESIGN.md to the code it describes: every
// backticked `pkg.Name`, `pkg.Type.Member` or `Type.Member` (a trailing
// "()" stripped) whose first part names a package or a type of this module
// must resolve to a func, type, var or const of that package (its tests
// included, so `sim.TestObsSurfaces` names a test that holds a pin), or to
// a method or field of that type. A name the document cites after its code
// was renamed or deleted fails here. Spans ending in ".go" are file names,
// and names outside the module (`json.Unmarshal`) are not checked.
func TestDesignNamesResolve(t *testing.T) {
	idx := indexModule(t, ".", "internal", "cmd")
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`]+)`")
	dotted := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*){1,2}$`)
	checked := 0
	for i, line := range strings.Split(string(doc), "\n") {
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			ref := strings.TrimSuffix(m[1], "()")
			if !dotted.MatchString(ref) || strings.HasSuffix(ref, ".go") {
				continue
			}
			ok, cited := idx.resolve(strings.Split(ref, "."))
			if !cited {
				continue
			}
			checked++
			if !ok {
				t.Errorf("DESIGN.md:%d: `%s` names nothing declared in the module", i+1, m[1])
			}
		}
	}
	t.Logf("%d module names in DESIGN.md resolved", checked)
	// A broken pattern or index must not pass by checking nothing.
	if checked < 100 {
		t.Errorf("only %d module names checked in DESIGN.md, want at least 100", checked)
	}
}

// moduleIndex is what DESIGN.md may cite: each package's top-level names,
// and each type's methods and fields, by package-qualified and bare type
// name (a bare name covers every package that declares it).
type moduleIndex struct {
	pkgs    map[string]map[string]bool // package name → funcs, types, vars, consts
	members map[string]map[string]bool // "pkg.Type" and "Type" → methods, fields
}

// indexModule parses the Go files under each root (the root directory
// itself only at its top level); an external test package counts as the
// package it tests.
func indexModule(t *testing.T, roots ...string) *moduleIndex {
	t.Helper()
	idx := &moduleIndex{
		pkgs:    map[string]map[string]bool{},
		members: map[string]map[string]bool{},
	}
	fset := token.NewFileSet()
	parse := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		idx.add(f)
	}
	for _, root := range roots {
		if root == "." {
			files, _ := filepath.Glob("*.go")
			for _, path := range files {
				parse(path)
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go"):
				parse(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return idx
}

func (idx *moduleIndex) add(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	top := idx.pkgs[pkg]
	if top == nil {
		top = map[string]bool{}
		idx.pkgs[pkg] = top
	}
	member := func(typ, name string) {
		for _, key := range []string{pkg + "." + typ, typ} {
			if idx.members[key] == nil {
				idx.members[key] = map[string]bool{}
			}
			if name != "" {
				idx.members[key][name] = true
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
			} else if typ := baseTypeName(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					top[typ] = true
					member(typ, "")
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						if len(fld.Names) == 0 { // embedded: named by its type
							member(typ, baseTypeName(fld.Type))
						}
						for _, n := range fld.Names {
							member(typ, n.Name)
						}
					}
				}
			}
		}
	}
}

// baseTypeName is the type name under pointers and type arguments:
// "LRU" for *LRU[K, V], "Handler" for dnsmsg.Handler.
func baseTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// resolve reports whether the dotted name parts resolve, and whether the
// module is what they cite (their first part a module package or type).
func (idx *moduleIndex) resolve(parts []string) (ok, cited bool) {
	first := parts[0]
	if top, isPkg := idx.pkgs[first]; isPkg {
		cited = true
		switch len(parts) {
		case 2:
			ok = top[parts[1]]
		case 3:
			ok = idx.members[first+"."+parts[1]][parts[2]]
		}
		if ok {
			return true, true
		}
	}
	if _, isType := idx.members[first]; isType && len(parts) == 2 {
		return idx.members[first][parts[1]], true
	}
	return false, cited
}
