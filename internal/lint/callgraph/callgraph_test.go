package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"sdem/internal/lint/callgraph"
)

// check type-checks one synthetic package and wraps it for Build.
func check(t *testing.T, fset *token.FileSet, path, src string, deps map[string]*types.Package) callgraph.SourcePackage {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: mapImporter(deps)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("check %s: %v", path, err)
	}
	return callgraph.SourcePackage{Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
}

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	return m[path], nil
}

// fn looks a function up by name in a package scope and returns its node.
func fn(t *testing.T, g *callgraph.Graph, pkg *types.Package, name string) *callgraph.Node {
	t.Helper()
	obj, ok := pkg.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %s in %s", name, pkg.Path())
	}
	n := g.Node(obj)
	if n == nil {
		t.Fatalf("no node for %s.%s", pkg.Path(), name)
	}
	return n
}

const depSrc = `package dep

func Emit() {}

func Quiet() int { return 0 }
`

const mainSrc = `package main

import "dep"

func A() { B(); C() }

func B() { dep.Emit() }

func C() {
	f := func() { dep.Quiet() }
	f()
}

// D references B without calling it: still an edge.
func D() func() { return wrap(B) }

func wrap(f func()) func() { return f }

func Lone() {}
`

func build(t *testing.T) (*callgraph.Graph, *types.Package, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	dep := check(t, fset, "dep", depSrc, nil)
	main := check(t, fset, "main", mainSrc, map[string]*types.Package{"dep": dep.Types})
	g := callgraph.Build([]callgraph.SourcePackage{dep, main})
	return g, dep.Types, main.Types
}

func names(ns []*callgraph.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Name()
	}
	return out
}

func TestEdges(t *testing.T) {
	g, dep, main := build(t)

	a := fn(t, g, main, "A")
	got := names(a.Callees)
	want := []string{"main.B", "main.C"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("A callees = %v, want %v", got, want)
	}

	// The closure inside C is attributed to C.
	c := fn(t, g, main, "C")
	if got := names(c.Callees); len(got) != 1 || got[0] != "dep.Quiet" {
		t.Fatalf("C callees = %v, want [dep.Quiet]", got)
	}

	// Bare function reference counts as an edge.
	d := fn(t, g, main, "D")
	found := false
	for _, callee := range d.Callees {
		if callee == fn(t, g, main, "B") {
			found = true
		}
	}
	if !found {
		t.Fatalf("D callees = %v, want to include main.B (bare reference)", names(d.Callees))
	}

	// Callers are recorded symmetrically.
	emit := fn(t, g, dep, "Emit")
	if got := names(emit.Callers); len(got) != 1 || got[0] != "main.B" {
		t.Fatalf("Emit callers = %v, want [main.B]", got)
	}
}

func TestReachable(t *testing.T) {
	g, dep, main := build(t)

	a := fn(t, g, main, "A")
	reach := g.Reachable([]*callgraph.Node{a})
	for _, name := range []string{"B", "C"} {
		if reach[fn(t, g, main, name)] != a {
			t.Errorf("%s not attributed to root A", name)
		}
	}
	if reach[fn(t, g, dep, "Emit")] != a {
		t.Errorf("dep.Emit not reachable from A")
	}
	if reach[fn(t, g, main, "Lone")] != nil {
		t.Errorf("Lone should be unreachable from A")
	}
}

func TestReachesAny(t *testing.T) {
	g, dep, main := build(t)

	emit := fn(t, g, dep, "Emit")
	target := g.ReachesAny([]*callgraph.Node{emit})

	a, b := fn(t, g, main, "A"), fn(t, g, main, "B")
	if target[b] != emit {
		t.Fatalf("B should reach Emit")
	}
	if target[a] != emit {
		t.Fatalf("A should reach Emit transitively")
	}
	if target[fn(t, g, main, "C")] != nil {
		t.Fatalf("C reaches no sink, got %v", target[fn(t, g, main, "C")])
	}
	// D references B, so conservatively D reaches the sink too.
	if target[fn(t, g, main, "D")] != emit {
		t.Fatalf("D should reach Emit through the bare reference to B")
	}
}

func TestDeterministicNodeOrder(t *testing.T) {
	g1, _, _ := build(t)
	g2, _, _ := build(t)
	n1, n2 := names(g1.Declared()), names(g2.Declared())
	if len(n1) != len(n2) {
		t.Fatalf("node counts differ: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("node order differs at %d: %s vs %s", i, n1[i], n2[i])
		}
	}
}
