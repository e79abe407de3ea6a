// Package callgraph builds a module-wide static call graph over the
// type-checked packages the sdemlint loader produces. Analyzers use it for
// interprocedural reasoning: propagating //sdem:hotpath hotness down into
// transitive callees (hotalloc) and tracing whether a function's writes
// reach an output sink (detcheck).
//
// The graph is a deliberate over-approximation built from syntax alone:
//
//   - A direct call f() or recv.M() adds an edge to the statically resolved
//     *types.Func.
//   - A bare reference to a function (passing it as a value, e.g. the
//     comparator handed to sort.Slice) also adds an edge, because the
//     receiving code may invoke it.
//   - Function literals are attributed to their enclosing declaration: a
//     call made inside a closure is an edge from the declared function that
//     contains the closure.
//   - Dynamic dispatch through interface methods resolves to the interface
//     method object only; implementations are not linked (analyzers that
//     need soundness across dynamic dispatch must arrange their own
//     discipline, e.g. hotalloc's directive sits on concrete functions).
//
// All node and edge orders are deterministic: nodes sort by package path
// then position, and a node's callee list preserves first-occurrence source
// order within its declaration.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SourcePackage is one type-checked package fed to Build. It mirrors the
// fields of the loader's Package without importing it, so fixture-based
// tests can construct inputs directly.
type SourcePackage struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Node is one function in the graph.
type Node struct {
	// Func is the type-checker's object for the function or method.
	Func *types.Func
	// Decl is the declaration syntax, nil for functions whose source was
	// not among the built packages (imported module deps analyzed in a
	// different pass still carry syntax; true externals do not).
	Decl *ast.FuncDecl
	// Fset positions Decl (nil iff Decl is nil).
	Fset *token.FileSet
	// Callees lists the distinct functions this node calls or references,
	// in first-occurrence source order.
	Callees []*Node
	// Callers lists the distinct nodes that call or reference this one,
	// sorted by package path then name for determinism.
	Callers []*Node
}

// Name returns the node's fully qualified name, e.g.
// "sdem/internal/online.Schedule" or "(*sdem/internal/sim.Stream).Run".
func (n *Node) Name() string { return n.Func.FullName() }

// Graph is the module-wide call graph.
type Graph struct {
	nodes map[*types.Func]*Node
	// decls indexes declared functions by the position of their Name
	// identifier, letting analyzers map a FuncDecl back to its node.
	decls map[token.Pos]*Node
}

// Node returns the graph node of fn, or nil if fn was never seen.
func (g *Graph) Node(fn *types.Func) *Node {
	if g == nil {
		return nil
	}
	return g.nodes[fn]
}

// NodeAt returns the node whose declaration name sits at pos, or nil.
func (g *Graph) NodeAt(pos token.Pos) *Node {
	if g == nil {
		return nil
	}
	return g.decls[pos]
}

// Nodes returns every node in deterministic order: package path, then
// file position of the declaration, with declaration-less externals last
// (sorted by full name).
func (g *Graph) Nodes() []*Node {
	if g == nil {
		return nil
	}
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return nodeLess(out[i], out[j]) })
	return out
}

func nodeLess(a, b *Node) bool {
	ad, bd := a.Decl != nil, b.Decl != nil
	if ad != bd {
		return ad // declared nodes first
	}
	ap, bp := pkgPath(a.Func), pkgPath(b.Func)
	if ap != bp {
		return ap < bp
	}
	if ad {
		return a.Decl.Pos() < b.Decl.Pos()
	}
	return a.Func.FullName() < b.Func.FullName()
}

func pkgPath(f *types.Func) string {
	if p := f.Pkg(); p != nil {
		return p.Path()
	}
	return ""
}

// builder accumulates the graph.
type builder struct {
	g *Graph
	// calleeSeen dedupes edges per caller.
	calleeSeen map[*Node]map[*Node]bool
}

func (b *builder) node(fn *types.Func) *Node {
	if n, ok := b.g.nodes[fn]; ok {
		return n
	}
	n := &Node{Func: fn}
	b.g.nodes[fn] = n
	return n
}

func (b *builder) edge(from, to *Node) {
	if from == to {
		return // self-recursion adds nothing for reachability
	}
	seen := b.calleeSeen[from]
	if seen == nil {
		seen = make(map[*Node]bool)
		b.calleeSeen[from] = seen
	}
	if seen[to] {
		return
	}
	seen[to] = true
	from.Callees = append(from.Callees, to)
	to.Callers = append(to.Callers, from)
}

// Build constructs the call graph of the given packages. Packages are
// processed in the order given; drive it with a deterministically ordered
// package list (the loader sorts by import path).
func Build(pkgs []SourcePackage) *Graph {
	b := &builder{
		g:          &Graph{nodes: make(map[*types.Func]*Node), decls: make(map[token.Pos]*Node)},
		calleeSeen: make(map[*Node]map[*Node]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := b.node(obj)
				n.Decl = fd
				n.Fset = pkg.Fset
				b.g.decls[fd.Name.Pos()] = n
				b.addBodyEdges(n, fd.Body, pkg.Info)
			}
		}
	}
	for _, n := range b.g.nodes {
		sort.Slice(n.Callers, func(i, j int) bool { return nodeLess(n.Callers[i], n.Callers[j]) })
	}
	return b.g
}

// addBodyEdges walks a declaration body and records an edge for every
// identifier or selector that resolves to a function object — call targets
// and bare references alike.
func (b *builder) addBodyEdges(from *Node, body *ast.BlockStmt, info *types.Info) {
	ast.Inspect(body, func(node ast.Node) bool {
		var id *ast.Ident
		switch e := node.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			// The Sel identifier is visited on its own; nothing extra here.
			return true
		default:
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		b.edge(from, b.node(fn))
		return true
	})
}

// Reachable returns the set of nodes reachable from the given roots by
// following callee edges, including the roots themselves. The companion
// map records, for each reached node, the root it was first reached from
// (roots are processed in the given order; traversal is breadth-first over
// source-ordered callee lists, so the attribution is deterministic).
func (g *Graph) Reachable(roots []*Node) map[*Node]*Node {
	out := make(map[*Node]*Node, len(roots))
	var queue []*Node
	for _, r := range roots {
		if r == nil || out[r] != nil {
			continue
		}
		out[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if out[c] != nil {
				continue
			}
			out[c] = out[n]
			queue = append(queue, c)
		}
	}
	return out
}

// ReachesAny returns, for every node in the graph, the first node of the
// target set reachable from it by callee edges (or itself if it is a
// target), and the next hop toward that target. It is the reverse
// reachability detcheck uses: "does this function's execution reach an
// output sink". Determinism comes from breadth-first traversal of sorted
// caller lists seeded with the targets in the given order.
func (g *Graph) ReachesAny(targets []*Node) (target, next map[*Node]*Node) {
	target = make(map[*Node]*Node)
	next = make(map[*Node]*Node)
	var queue []*Node
	for _, t := range targets {
		if t == nil || target[t] != nil {
			continue
		}
		target[t] = t
		queue = append(queue, t)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callers {
			if target[c] != nil {
				continue
			}
			target[c] = target[n]
			next[c] = n
			queue = append(queue, c)
		}
	}
	return target, next
}
