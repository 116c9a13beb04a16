package gangfm

// Dead-state guard. The module is type-checked from source, and every
// function, method and struct field declared outside the tests is matched,
// as a types.Object, against its uses in the callers: production packages,
// the repository benchmark under bench/ (its own module, built from this
// source) and example_test.go, whose Examples document the public API. A
// function no caller names, or a field that callers assign but never read,
// is dead weight the tests keep alive, so this test fails when one
// appears. What stays anyway is listed in allowed, with the reason. Two
// uses the type checker cannot see are left to the goldens: a field
// printed only through %v, and a value read only by reflection.

import (
	"go/ast"
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

// allowed lists the objects the guard flags but that stay, each with the
// reason, by qualified name (see qualified). An entry the guard no longer
// flags fails as stale: a field that gained a production reader, or an
// object that is gone, leaves the list with it.
var allowed = map[string]string{
	// Test hooks: methods only another package's tests call. An
	// export_test.go is compiled only into its own package's tests.
	"gangfm/internal/core.Manager.ReserveHistory": "parpar's zero-alloc test and BenchmarkSwitchRound256 reserve the switch history, " +
		"the one amortized allocator in a rotation",
	"gangfm/internal/core.Manager.Contexts": "parpar's kill tests check that a killed job leaves no process context on any node's manager",

	// Fields read where the type checker sees no selector.
	"gangfm/internal/parpar.progressKey.node": "read through map-key equality: progress snapshots are keyed by (node, job)",
	"gangfm/internal/parpar.progressKey.job":  "read through map-key equality: progress snapshots are keyed by (node, job)",

	// Fields only tests read, each the one window on a behaviour.
	"gangfm/internal/lanai.Stats.StaleCtrl": "TestPartialHaltLossCountsStaleCtrl checks that re-broadcast halts reach peers " +
		"that already heard them and are dropped as duplicates; the clean-run recovery test requires it stays 0",
	"gangfm/internal/altsched.DynCosNode.ComputeCycles": "TestDynCosComputeFraction checks that the local compute job " +
		"keeps over 90% of the CPU under sparse traffic",
	"gangfm/internal/altsched.DynCosNode.Wakeups": "TestDynCosMessageWakesReceiver checks that an arrival wakes a descheduled " +
		"receiver, TestDynCosBulkTrafficStaysAwake that a continuous stream does not thrash it",
}

// modulePath is this module's import path; bench/ is the module
// modulePath/bench.
const modulePath = "gangfm"

// module type-checks the module's packages from source, each after the
// packages it imports; the standard library comes from export data.
type module struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	info  *types.Info
	files []*ast.File // every file checked: all are callers
	decls []*ast.File // the non-test module files, whose declarations are checked
}

func (m *module) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	return m.check(path, dir, nonTest, true)
}

func nonTest(name string) bool { return !strings.HasSuffix(name, "_test.go") }

// check parses the files of dir that keep accepts and type-checks them as
// package path; decl marks files whose declarations the guard checks.
func (m *module) check(path, dir string, keep func(string) bool, decl bool) (*types.Package, error) {
	parsed, err := parser.ParseDir(m.fset, dir, func(fi fs.FileInfo) bool { return keep(fi.Name()) }, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Pos() < files[j].Pos() })
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	m.files = append(m.files, files...)
	if decl {
		m.decls = append(m.decls, files...)
	}
	return pkg, nil
}

// loadModule type-checks every package of the module, then bench/ and the
// Examples as callers only.
func loadModule(t *testing.T) *module {
	m := &module{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	m.std = importer.ForCompiler(m.fset, "gc", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
			return filepath.SkipDir
		}
		if gofiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gofiles) > 0 {
			m.dirs[strings.TrimSuffix(modulePath+"/"+filepath.ToSlash(path), "/.")] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.check(modulePath+"/bench", "bench", nonTest, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.check(modulePath+"_test", ".", func(name string) bool { return name == "example_test.go" }, false); err != nil {
		t.Fatal(err)
	}
	return m
}

// declared returns the functions, methods and named (non-embedded) struct
// fields the non-test module files declare, main and init aside, with
// each field's struct type name.
func (m *module) declared() (objs []types.Object, owner map[*types.Var]string) {
	owner = map[*types.Var]string{}
	for _, f := range m.decls {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name != "main" && n.Name.Name != "init" {
					objs = append(objs, m.info.Defs[n.Name])
				}
			case *ast.TypeSpec:
				if st, ok := m.info.Defs[n.Name].Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						owner[st.Field(i)] = n.Name.Name
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					if v, ok := m.info.Defs[id].(*types.Var); ok && v.IsField() {
						objs = append(objs, v)
					}
				}
			}
			return true
		})
	}
	return objs, owner
}

// uses classifies every use in the caller files. A field is assigned where
// it is the target of an assignment or ++/-- (directly or through an
// index) or the key or position of a composite-literal element; every
// other use reads it. A function or method is live once read.
func (m *module) uses() (assigned, read map[types.Object]bool) {
	assigned, read = map[types.Object]bool{}, map[types.Object]bool{}
	written := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				written[x.Sel] = true
			}
			return
		}
	}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.CompositeLit:
				t := m.info.Types[n].Type
				if p, ok := t.Underlying().(*types.Pointer); ok { // an elided &T
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						written[kv.Key.(*ast.Ident)] = true
					} else {
						assigned[st.Field(i)] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && m.info.Uses[id] != nil {
				if written[id] {
					assigned[m.info.Uses[id]] = true
				} else {
					read[m.info.Uses[id]] = true
				}
			}
			return true
		})
	}
	return assigned, read
}

// interfaces gathers the universe's error, every named interface of the
// checked packages and of everything they import, and each interface type
// written in the code.
func (m *module) interfaces() []*types.Interface {
	var out []*types.Interface
	have := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !have[it] {
			have[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.pkgs {
		visit(p)
	}
	for _, tv := range m.info.Types {
		add(tv.Type)
	}
	return out
}

// receiver returns the named type a method is declared on, or nil for a
// plain function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// satisfies reports whether method fn of named type n is part of
// satisfying one of ifaces. A call through the interface names the
// interface's method, not fn, so such a method counts as live.
func satisfies(n *types.Named, fn *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
			return true
		}
	}
	return false
}

// qualified names an object as importpath.Func, importpath.Type.Method or
// importpath.Type.field, an anonymous struct's field as
// importpath.struct{…}.field.
func qualified(obj types.Object, owner map[*types.Var]string) string {
	prefix := obj.Pkg().Path() + "."
	switch o := obj.(type) {
	case *types.Func:
		if n := receiver(o); n != nil {
			return prefix + n.Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if name, ok := owner[o]; ok {
			return prefix + name + "." + o.Name()
		}
		return prefix + "struct{…}." + o.Name()
	}
	return prefix + obj.Name()
}

func TestNoDeadState(t *testing.T) {
	m := loadModule(t)
	objs, owner := m.declared()
	assigned, read := m.uses()
	ifaces := m.interfaces()
	flagged := map[string]string{}
	for _, obj := range objs {
		var why string
		switch o := obj.(type) {
		case *types.Func:
			if read[o] {
				continue
			}
			if n := receiver(o); n != nil && satisfies(n, o, ifaces) {
				continue
			}
			why = "no caller names it"
		case *types.Var:
			if o.Anonymous() || !assigned[o] || read[o] {
				continue
			}
			why = "assigned but never read"
		}
		name := qualified(obj, owner)
		flagged[name] = m.fset.Position(obj.Pos()).String() + ": " + name + ": " + why
	}
	var dead, stale []string
	for name, line := range flagged {
		if _, ok := allowed[name]; !ok {
			dead = append(dead, line)
		}
	}
	for name := range allowed {
		if _, ok := flagged[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	if len(dead) > 0 {
		t.Errorf("dead state outside the tests (delete it, move it into the test that uses it, "+
			"give it a reader, or allowlist it with a reason):\n%s", strings.Join(dead, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("allowlist entries the guard no longer flags (remove them):\n%s", strings.Join(stale, "\n"))
	}
}
