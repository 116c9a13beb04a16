package gangfm

// Dead-code guard. Every function and method outside the tests must be
// called, or otherwise named, by non-test code: production packages, the
// repository benchmark under bench/ (its own module, built from this
// source) and example_test.go, whose Examples document the public API. A
// function only tests reach is dead weight the tests keep alive, so this
// test fails when one appears. Matching is by identifier name alone: a
// function whose name is also used for something else passes, so the
// guard can miss dead code but never flags live code.

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

// implicitMethods are called by the standard library through an interface
// (fmt's Stringer and error, sort.Interface, container/heap), never by
// name in this repository's code.
var implicitMethods = map[string]bool{
	"String": true, "Error": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// testHooks are production methods that only another package's tests
// call. An export_test.go is compiled only into its own package's tests,
// so these cannot move there, and no production path exposes what they
// measure.
var testHooks = map[string]bool{
	// parpar's zero-alloc test and BenchmarkSwitchRound256 reserve the
	// switch history, the one amortized allocator in a rotation.
	"internal/core.Manager.ReserveHistory": true,
	// parpar's kill tests check that a killed job leaves no process
	// context on any node's manager.
	"internal/core.Manager.Contexts": true,
}

// qualifiedName names a function as dir.Func or dir.Recv.Method.
func qualifiedName(dir string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return filepath.ToSlash(dir) + "." + name
}

// callerFile reports whether a file counts as a caller: non-test code, or
// the documented API's Examples.
func callerFile(path string) bool {
	return !strings.HasSuffix(path, "_test.go") || filepath.Base(path) == "example_test.go"
}

func TestNoTestOnlyFunctions(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name, where string
	}
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !callerFile(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		if !strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fd.Name] = true
				name := fd.Name.Name
				qualified := qualifiedName(filepath.Dir(path), fd)
				if name == "main" || name == "init" || (fd.Recv != nil && implicitMethods[name]) || testHooks[qualified] {
					continue
				}
				decls = append(decls, decl{name, fset.Position(fd.Pos()).String() + ": " + qualified})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if !used[d.name] {
			dead = append(dead, d.where)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("functions no non-test code names (delete them, or move them to a _test.go file):\n%s",
			strings.Join(dead, "\n"))
	}
}
