// Package hotalloc implements the sdemlint analyzer that keeps the
// module's hot paths allocation-free.
//
// A function marked with a //sdem:hotpath directive is a hot root; every
// function reachable from a root through the module call graph is hot.
// Inside hot functions the analyzer flags the allocation constructs that
// profiling showed dominate the solver inner loops:
//
//   - fmt.* calls (everything except the cold-error-path fmt.Errorf):
//     the variadic ...any boxes every argument;
//   - container/heap operations: heap.Push and heap.Pop traffic in `any`,
//     boxing every element on the way in AND out — two heap allocations
//     per element; hot heaps must be typed (sift-up/sift-down on a
//     concrete slice);
//   - per-call map creation (make(map...), map literals) and channel
//     creation — hot code should reuse scratch structures;
//   - variable-capturing closures, which allocate per call (non-capturing
//     function literals are static and pass untouched);
//   - append growing a slice inside a loop when the function never
//     preallocates that slice with a make(..., n) / make(..., 0, cap);
//   - interface boxing of a concrete argument, reported only when the
//     compiler's own escape analysis (go build -gcflags=-m, see
//     internal/lint/escape) confirms the value escapes to the heap;
//   - the address of a local passed as an interface argument (&x, or a
//     conversion such as (*T)(&x) for a sort adapter), reported only when
//     the compiler moved x itself to the heap.
//
// Findings that are deliberate — error paths, one-time setup inside a hot
// entry point, telemetry fast paths already measured at 0 allocs/op —
// carry //lint:allow hotalloc comments stating why.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sdem/internal/lint/analysis"
	"sdem/internal/lint/callgraph"
	"sdem/internal/lint/escape"
)

// Directive marks a function as a hot-path root for this analyzer.
const Directive = "//sdem:hotpath"

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocation constructs (fmt.*, container/heap, per-call maps, capturing closures, " +
		"append without preallocation, escaping interface boxing) in functions reachable " +
		"from a //sdem:hotpath directive; reuse scratch buffers, preallocate, or suppress " +
		"with //lint:allow hotalloc where the allocation is deliberate",
	Run: run,
}

// hasDirective reports whether the doc comment carries //sdem:hotpath.
func hasDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// hotSet maps every hot function to the name of the root that makes it hot.
type hotSet struct {
	rootOf map[*types.Func]string
}

// buildHotSet takes the declared directive-marked functions as roots, in
// package-path-then-position order, and attributes every function they
// reach to the first root whose breadth-first walk gets there.
func buildHotSet(pass *analysis.Pass) *hotSet {
	return pass.Module.Memo("hotalloc.hot", func() any {
		var roots []*callgraph.Node
		for _, n := range pass.Module.Graph.Declared() {
			if hasDirective(n.Decl.Doc) {
				roots = append(roots, n)
			}
		}
		h := &hotSet{rootOf: make(map[*types.Func]string)}
		for n, root := range pass.Module.Graph.Reachable(roots) {
			h.rootOf[n.Func] = root.Func.Name()
		}
		return h
	}).(*hotSet)
}

// escapeReport lazily runs the compiler escape probe over the module, once
// per lint invocation. A nil report (probe unavailable, e.g. fixture
// packages outside a module) disables the boxing check rather than failing
// the run.
func escapeReport(pass *analysis.Pass) *escape.Report {
	return pass.Module.Memo("hotalloc.escape", func() any {
		rep, err := escape.Analyze(pass.Module.Dir, "./...")
		if err != nil {
			return (*escape.Report)(nil)
		}
		return rep
	}).(*escape.Report)
}

func run(pass *analysis.Pass) error {
	hot := buildHotSet(pass)

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			root, isHot := hot.rootOf[obj]
			if !isHot {
				continue
			}
			checkHotBody(pass, fd, root)
		}
	}
	return nil
}

// checkHotBody applies every allocation check to one hot function body.
func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl, root string) {
	where := "hot path (reachable from //sdem:hotpath root " + root + ")"
	if fd.Name.Name == root && hasDirective(fd.Doc) {
		where = "//sdem:hotpath function"
	}

	prealloc := preallocated(pass, fd.Body)

	// reported dedupes loop-append findings: with nested loops the outer
	// and inner walk would otherwise both land on the same append.
	reported := make(map[*ast.CallExpr]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkFmtCall(pass, n, where)
			checkHeapCall(pass, n, where)
			checkMakeCall(pass, n, where)
			checkBoxing(pass, n, where)
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal allocates per call on %s; hoist it to a package variable or reuse a scratch map", where)
				}
			}
		case *ast.FuncLit:
			if capt, ok := firstCapture(pass, n); ok {
				pass.Reportf(n.Pos(), "closure captures %q and allocates per call on %s; hoist the function or pass state explicitly", capt, where)
			}
		case *ast.RangeStmt:
			checkLoopAppends(pass, n.Body, prealloc, reported, where)
		case *ast.ForStmt:
			checkLoopAppends(pass, n.Body, prealloc, reported, where)
		}
		return true
	})
}

// checkFmtCall flags fmt.* calls except the cold-error-path fmt.Errorf.
func checkFmtCall(pass *analysis.Pass, call *ast.CallExpr, where string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() == "Errorf" {
		return
	}
	pass.Reportf(call.Pos(), "fmt.%s boxes its arguments and allocates on %s; use strconv, a reused buffer, or move formatting off the hot path", fn.Name(), where)
}

// checkHeapCall flags every container/heap operation. heap.Push and
// heap.Pop move each element through `any` — one box going in, another
// coming out — and the remaining operations (Init, Fix, Remove) only
// exist to drive the same boxed Interface, so any use of the package on a
// hot path signals the pattern. The check is syntactic on purpose: the
// boxing happens inside the heap package where the escape probe cannot
// attribute it to the caller's line.
func checkHeapCall(pass *analysis.Pass, call *ast.CallExpr, where string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "container/heap" {
		return
	}
	pass.Reportf(call.Pos(), "container/heap.%s boxes every element through any on %s; use a typed heap (sift-up/sift-down on a concrete slice)", fn.Name(), where)
}

// checkMakeCall flags per-call map and channel creation.
func checkMakeCall(pass *analysis.Pass, call *ast.CallExpr, where string) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		pass.Reportf(call.Pos(), "make(map) allocates per call on %s; reuse a scratch map (clear() between uses) or restructure around slices", where)
	case *types.Chan:
		pass.Reportf(call.Pos(), "make(chan) allocates per call on %s; create channels once at setup", where)
	}
}

// checkBoxing flags a concrete argument passed as an interface parameter
// when the compiler's escape analysis confirms the boxed value reaches the
// heap, and an address-of-local argument when the compiler moved the local
// to the heap. Without compiler confirmation nothing is reported:
// interfaces that stay on the stack are free.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, where string) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	// fmt.* and container/heap are already reported wholesale by
	// checkFmtCall and checkHeapCall.
	if fn.Pkg() != nil && (fn.Pkg().Path() == "fmt" || fn.Pkg().Path() == "container/heap") {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	var rep *escape.Report
	loaded := false
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil {
			continue
		}
		iface, isIface := pt.Underlying().(*types.Interface)
		if !isIface {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if _, argIsIface := at.Type.Underlying().(*types.Interface); argIsIface {
			continue // interface-to-interface: no box
		}
		if !loaded {
			rep, loaded = escapeReport(pass), true
		}
		if _, isPtr := at.Type.Underlying().(*types.Pointer); isPtr {
			// A pointer fits in the interface word, but boxing the
			// address of a local can move the local itself to the heap.
			if v := addressedLocal(pass, arg); v != nil && movedToHeap(rep, pass.Fset.Position(v.Pos()), v.Name()) {
				pass.Reportf(arg.Pos(), "&%s passed as an interface argument to %s moves %s to the heap (compiler -m) on %s; keep it in retained storage (a struct field) or use a non-interface API such as slices.SortFunc", v.Name(), fn.Name(), v.Name(), where)
			}
			continue
		}
		p := pass.Fset.Position(arg.Pos())
		if rep.HeapOnLine(p.Filename, p.Line) {
			name := "interface"
			if iface.Empty() {
				name = "any"
			}
			pass.Reportf(arg.Pos(), "argument boxes %s into %s and escapes to the heap (compiler -m) on %s; pass a pointer or restructure to avoid the conversion", at.Type.String(), name, where)
		}
	}
}

// addressedLocal returns the local variable x when e is &x, or a type
// conversion of it such as (*T)(&x); nil otherwise. Fields and
// package-level variables never count: only locals can move to the heap
// per call.
func addressedLocal(pass *analysis.Pass, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if conv, ok := e.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[conv.Fun]; ok && tv.IsType() {
			e = ast.Unparen(conv.Args[0])
		}
	}
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	id, ok := ast.Unparen(u.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent().Parent() == types.Universe {
		return nil
	}
	return v
}

// movedToHeap reports whether the compiler recorded "moved to heap: name"
// at the variable's declaration.
func movedToHeap(rep *escape.Report, decl token.Position, name string) bool {
	for _, m := range rep.Messages(escape.Pos{File: decl.Filename, Line: decl.Line, Col: decl.Column}) {
		if m == "moved to heap: "+name {
			return true
		}
	}
	return false
}

// firstCapture returns the name of the first outer local variable the
// function literal captures, in source order. Package-level variables and
// the literal's own parameters and locals do not count: only captured
// locals force the closure (and its context record) to allocate.
func firstCapture(pass *analysis.Pass, lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own param or local
		}
		if v.Parent() == nil || v.Parent().Parent() == types.Universe {
			return true // package-level variable: no capture
		}
		name = v.Name()
		return false
	})
	return name, name != ""
}

// paramType returns the effective parameter type for argument i, expanding
// the variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		last := params.At(params.Len() - 1).Type()
		if sl, ok := last.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// preallocated collects the local slice variables the function initializes
// with a sized or capacity-carrying make, i.e. make([]T, n) or
// make([]T, 0, cap). Appending to those inside a loop is planned growth.
func preallocated(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			return
		}
		target, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if obj := pass.TypesInfo.Defs[target]; obj != nil {
			out[obj] = true
		} else if obj := pass.TypesInfo.Uses[target]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// checkLoopAppends flags `x = append(x, ...)` inside a loop body when x was
// never preallocated in the enclosing function.
func checkLoopAppends(pass *analysis.Pass, body *ast.BlockStmt, prealloc map[types.Object]bool, reported map[*ast.CallExpr]bool, where string) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || reported[call] {
			return true
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "append" {
			return true
		}
		if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin {
			return true
		}
		dst, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[dst]
		if obj == nil {
			obj = pass.TypesInfo.Defs[dst]
		}
		if obj == nil || prealloc[obj] {
			return true
		}
		reported[call] = true
		pass.Reportf(call.Pos(), "append grows %q inside a loop without preallocation on %s; size it with make(..., 0, n) before the loop", dst.Name, where)
		return true
	})
}
