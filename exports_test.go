package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowList names the exported identifiers under internal/ that may
// stay without a caller in non-test code, each with the reason it stays.
// Keys are the package path below internal/, then the identifier, with a
// method written Type.Method.
var exportAllowList = map[string]string{
	"obs.Auditor.Err":        "the verdict the storm.Auditor doc tells users to read",
	"obs.Auditor.Ok":         "the verdict the storm.Auditor doc tells users to read",
	"obs.Auditor.Violations": "the verdict the storm.Auditor doc tells users to read",
	"obs.Auditor.Total":      "the verdict the storm.Auditor doc tells users to read",
	"obs.Auditor.SummaryChecked": "manet's audited-run tests assert the end-of-run reconciliation " +
		"ran, and a test in another package cannot reach an export_test.go",
	"snapshot.ObsNone": "the zero member of the ObsKind iota enum",
}

// TestInternalExportsHaveProductionCallers is the gate that keeps test
// oracles out of shipping code: every exported identifier declared in
// non-test code under internal/ must be referenced from non-test code in
// this module or in bench/, or be on exportAllowList. A method also
// counts as referenced when it implements a method of an interface that
// non-test code references (by name, or as the parameter or result type
// of a function it calls, like container/heap's), or of fmt.Stringer or
// error — decided with types.Implements, so RunEvent and friends are
// live through the interface they satisfy. For this module's own
// interfaces that holds per method: an interface method nothing calls is
// itself dead, and so are the implementations only it would reach.
// Struct fields are not checked.
//
// It type-checks from source with the standard library alone: every
// package of this module and of bench/ through go/types, the standard
// library through the go/importer source importer.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	if len(exportAllowList) > 10 {
		t.Errorf("exportAllowList has %d entries; keep it at 10 or fewer", len(exportAllowList))
	}
	prog := loadProgram(t)
	fmtPkg, err := prog.std.ImportFrom("fmt", ".", 0)
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
	}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, info := range prog.infos {
		for _, obj := range info.Uses {
			obj = origin(obj)
			used[obj] = true
			switch obj := obj.(type) {
			case *types.TypeName:
				addIface(obj.Type())
			case *types.Func:
				sig := obj.Type().(*types.Signature)
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tup.Len(); i++ {
						addIface(tup.At(i).Type())
					}
				}
			}
		}
	}

	// Methods reached through an interface: for every named type that
	// implements it, the method each live interface method selects. A
	// method of the standard library's interfaces is live (library code
	// calls it); a method of this module's is live when something calls
	// it through the interface.
	live := func(m *types.Func) bool {
		return m.Pkg() == nil || prog.pkgs[m.Pkg().Path()] == nil || used[m]
	}
	for _, pkg := range prog.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				for _, it := range ifaces {
					if !types.Implements(typ, it) {
						continue
					}
					mset := types.NewMethodSet(typ)
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if !live(m) {
							continue
						}
						if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
							used[origin(sel.Obj())] = true
						}
					}
				}
			}
		}
	}

	var dead []string
	declared := map[string]bool{}
	for path, pkg := range prog.pkgs {
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		check := func(key string, obj types.Object) {
			declared[key] = true
			_, allowed := exportAllowList[key]
			switch {
			case used[obj] && allowed:
				t.Errorf("%s is referenced from non-test code now: drop it from exportAllowList", key)
			case !used[obj] && !allowed:
				dead = append(dead, key)
			}
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				check(rel+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			methods := named.Method
			n := named.NumMethods()
			if it, ok := named.Underlying().(*types.Interface); ok {
				methods, n = it.ExplicitMethod, it.NumExplicitMethods()
			}
			for i := 0; i < n; i++ {
				if m := methods(i); m.Exported() {
					check(rel+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s has no caller outside _test.go files: delete it, move it to an export_test.go, or allow-list it with a reason", key)
	}
	for key := range exportAllowList {
		if !declared[key] {
			t.Errorf("exportAllowList entry %s names no exported identifier under internal/", key)
		}
	}
}

// configSetterAllowList names the fields of the simulator's Config types
// that may stay without a writer in non-test code, each with the reason
// it stays. Keys are package.Type.Field.
var configSetterAllowList = map[string]string{
	"manet.Config.Radius":     "bench/ reads the defaulted radius to place its worlds and drive phy",
	"manet.Config.UnitMeters": "bench/ reads the defaulted map unit to place its worlds",
	"manet.Config.Warmup": "bench/ reads the defaulted warm-up to cut ckpt-resume halfway, and the " +
		"dynamic-HELLO golden rows pin a 5 s warm-up through it",
	"manet.Config.Audit":           "the tests' reference checker: an audited run is how a test proves a world clean",
	"routing.Config.RouteLifetime": "tests drive route expiry through it",
	"routing.Config.RingTimeout":   "tests drive ring escalation through it",
	"routing.Config.DataInterval":  "tests drive data spacing through it",
	"routing.Config.Drain":         "tests keep a run going past route expiry and long data flows through it",
}

// TestConfigFieldsHaveProductionSetters is the options gate: every field
// of manet.Config and routing.Config must be set by non-test code in this
// module or in bench/ — as a composite-literal key or the target of an
// assignment — or be on configSetterAllowList. A WithDefaults method is a
// type filling itself in, not a caller, so its writes do not count. A
// field only tests set is a knob without a user: make it a constant or
// derive it.
func TestConfigFieldsHaveProductionSetters(t *testing.T) {
	prog := loadProgram(t)
	set := map[types.Object]bool{}
	for i, info := range prog.infos {
		for _, f := range prog.files[i] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "WithDefaults" {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							set[info.Uses[id]] = true
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								set[info.Uses[sel.Sel]] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	declared := map[string]bool{}
	for _, typ := range []string{"manet.Config", "routing.Config"} {
		pkg, name, _ := strings.Cut(typ, ".")
		st := prog.pkgs["repro/internal/"+pkg].Scope().Lookup(name).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			key := typ + "." + f.Name()
			declared[key] = true
			_, allowed := configSetterAllowList[key]
			switch {
			case set[f] && allowed:
				t.Errorf("%s is set by non-test code now: drop it from configSetterAllowList", key)
			case !set[f] && !allowed:
				t.Errorf("%s is set only by tests or WithDefaults: make it a constant or a derived value, give it a production caller, or allow-list it with a reason", key)
			}
		}
	}
	for key := range configSetterAllowList {
		if !declared[key] {
			t.Errorf("configSetterAllowList entry %s names no Config field", key)
		}
	}
}

// origin maps an instantiated generic function, method or field to the
// object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// program is every non-test package in the repository, type-checked
// from source: the root module and bench/, whose module path repro/bench
// is also its directory, so one import-path-to-directory rule serves both.
type program struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
	infos []*types.Info
	files [][]*ast.File // files[i] are the sources infos[i] describes
}

const module = "repro"

func loadProgram(t *testing.T) *program {
	t.Helper()
	fset := token.NewFileSet()
	p := &program{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
	}
	err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none || err == nil && len(bp.GoFiles) == 0 {
			return nil
		}
		if err != nil {
			return err
		}
		_, err = p.Import(path.Join(module, filepath.ToSlash(dir)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *program) Import(importPath string) (*types.Package, error) {
	if pkg, ok := p.pkgs[importPath]; ok {
		return pkg, nil
	}
	if importPath != module && !strings.HasPrefix(importPath, module+"/") {
		return p.std.ImportFrom(importPath, ".", 0)
	}
	dir := "." + strings.TrimPrefix(importPath, module)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: p}).Check(importPath, p.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	// A method's receiver names its own type; that is a declaration, not
	// a use, or a type only tests call would pass by having methods.
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						delete(info.Uses, id)
					}
					return true
				})
			}
		}
	}
	p.pkgs[importPath] = pkg
	p.infos = append(p.infos, info)
	p.files = append(p.files, files)
	return pkg, nil
}
