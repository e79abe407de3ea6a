// Package detcheck implements the interprocedural sdemlint analyzer that
// guards the module's determinism contract: byte-identical output at any
// worker count, with telemetry on or off.
//
// The analyzer taints nondeterminism sources and reports when they reach
// an output sink:
//
//   - Ordering nondeterminism: a `range` over a map whose loop body calls
//     an output sink — directly (fmt.Fprintf, (*json.Encoder).Encode,
//     io.WriteString, os.Stdout/os.Stderr methods) or transitively through
//     any module function that reaches one (computed over the module call
//     graph). Collecting keys for sorting makes no calls, so the
//     sorted-iteration idiom passes untouched.
//   - Value nondeterminism: a value obtained from time.Now/Since/Until or
//     from math/rand's global generator that flows (intra-function, via
//     direct use or a local variable) into an argument of a sink or
//     sink-reaching call.
//
// Sites where nondeterministic output is the point — the telemetry
// Profiler's wall-clock dumps, the serve middleware's request log — carry
// a //lint:allow detcheck comment stating why.
package detcheck

import (
	"go/ast"
	"go/types"

	"sdem/internal/lint/analysis"
	"sdem/internal/lint/callgraph"
)

// Analyzer is the detcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "detcheck",
	Doc: "flags nondeterminism sources (map iteration order, time.Now, global math/rand) " +
		"that reach output sinks, interprocedurally via the module call graph; sort before " +
		"emitting, derive values deterministically, or suppress with //lint:allow detcheck " +
		"where nondeterministic output is the point",
	Run: run,
}

// fmtSinks are the fmt functions that write to a stream.
var fmtSinks = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// sinkName reports whether the call is a primitive output sink, naming it.
func sinkName(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if fmtSinks[fn.Name()] {
			return "fmt." + fn.Name(), true
		}
	case "io":
		if fn.Name() == "WriteString" {
			return "io.WriteString", true
		}
	case "encoding/json":
		if fn.Name() == "Encode" {
			return "(*json.Encoder).Encode", true
		}
	}
	// Any method call on the process-wide standard streams.
	if base, ok := sel.X.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[base.Sel].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
			return "os." + obj.Name() + "." + sel.Sel.Name, true
		}
	}
	return "", false
}

// sourceName reports whether the call reads a nondeterminism source,
// naming it. Only the global (unseeded) math/rand generator counts: a
// seeded *rand.Rand is the stats.DeriveSeed discipline's concern.
func sourceName(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	switch pkg.Imported().Path() {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			return "time." + sel.Sel.Name, true
		}
	case "math/rand", "math/rand/v2":
		return "rand." + sel.Sel.Name, true
	}
	return "", false
}

// reach holds the memoized sink-reachability view of the call graph.
type reach struct {
	// via maps every function that reaches a sink to the primitive sink
	// name it reaches; direct emitters map to their own sink.
	via map[*types.Func]string
}

// buildReach finds the declared functions that call a primitive sink
// directly (the last such call in the body names the sink) and extends
// them to every function that reaches one through the call graph.
func buildReach(pass *analysis.Pass) *reach {
	return pass.Module.Memo("detcheck.reach", func() any {
		var targets []*callgraph.Node
		direct := make(map[*callgraph.Node]string)
		for _, n := range pass.Module.Graph.Declared() {
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				if via, ok := sinkName(n.Info, call); ok {
					direct[n] = via
					return false
				}
				return true
			})
			if _, ok := direct[n]; ok {
				targets = append(targets, n)
			}
		}
		r := &reach{via: make(map[*types.Func]string)}
		for n, t := range pass.Module.Graph.ReachesAny(targets) {
			r.via[n.Func] = direct[t]
		}
		return r
	}).(*reach)
}

func run(pass *analysis.Pass) error {
	rc := buildReach(pass)

	// calleeSink resolves a call to "writes via <sink>" when the callee is
	// a primitive sink or transitively reaches one.
	calleeSink := func(call *ast.CallExpr) (callee, via string, ok bool) {
		if via, ok := sinkName(pass.TypesInfo, call); ok {
			return via, via, true
		}
		var id *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return "", "", false
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok {
			return "", "", false
		}
		if via, ok := rc.via[fn]; ok {
			return fn.Name(), via, true
		}
		return "", "", false
	}

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body, calleeSink)
			checkValueFlow(pass, fd.Body, calleeSink)
		}
	}
	return nil
}

// checkMapRanges reports map-range loops whose body calls into an output
// sink, making the emission order depend on map iteration order.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt, calleeSink func(*ast.CallExpr) (string, string, bool)) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(inner ast.Node) bool {
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee, via, ok := calleeSink(call); ok {
				pass.Reportf(rng.Pos(), "map iteration order reaches an output sink: loop body calls %s, which writes via %s; collect and sort keys first, or add //lint:allow detcheck explaining why the order cannot matter", callee, via)
				return false
			}
			return true
		})
		return true
	})
}

// checkValueFlow reports nondeterministic values (wall clock, global rand)
// flowing into sink-call arguments, either directly or through a local
// variable assigned earlier in the function.
func checkValueFlow(pass *analysis.Pass, body *ast.BlockStmt, calleeSink func(*ast.CallExpr) (string, string, bool)) {
	// Pass 1: taint local variables assigned from a source call.
	taint := make(map[types.Object]string)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			src, ok := containsSource(pass.TypesInfo, rhs)
			if !ok {
				continue
			}
			// Conservatively taint every LHS of a multi-value assign.
			for j, lhs := range as.Lhs {
				if len(as.Rhs) == len(as.Lhs) && i != j {
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						taint[obj] = src
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						taint[obj] = src
					}
				}
			}
		}
		return true
	})

	// Pass 2: flag sink-call arguments carrying a source or tainted ident.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, via, isSink := calleeSink(call)
		if !isSink {
			return true
		}
		for _, arg := range call.Args {
			if src, ok := containsSource(pass.TypesInfo, arg); ok {
				pass.Reportf(arg.Pos(), "nondeterministic value from %s reaches output sink %s (via %s); derive it from virtual time or a seeded generator, or add //lint:allow detcheck explaining why", src, callee, via)
				continue
			}
			if src, ok := containsTainted(pass.TypesInfo, arg, taint); ok {
				pass.Reportf(arg.Pos(), "nondeterministic value from %s reaches output sink %s (via %s); derive it from virtual time or a seeded generator, or add //lint:allow detcheck explaining why", src, callee, via)
			}
		}
		return true
	})
}

// containsSource reports whether the expression subtree contains a call to
// a nondeterminism source, naming the first one.
func containsSource(info *types.Info, e ast.Expr) (string, bool) {
	var name string
	ast.Inspect(e, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if s, ok := sourceName(info, call); ok {
				name = s
				return false
			}
		}
		return true
	})
	return name, name != ""
}

// containsTainted reports whether the expression subtree references a
// tainted local, naming the source that tainted it.
func containsTainted(info *types.Info, e ast.Expr, taint map[types.Object]string) (string, bool) {
	var name string
	ast.Inspect(e, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if src, ok := taint[obj]; ok {
					name = src
					return false
				}
			}
		}
		return true
	})
	return name, name != ""
}
