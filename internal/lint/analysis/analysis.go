// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary used by the sdemlint analyzers,
// plus the one driver that runs them.
//
// The container this repo builds in has no module proxy access, so the
// canonical x/tools framework cannot be vendored; this package keeps the
// same core shapes (Analyzer, Pass, Diagnostic) so the per-package
// analyzers read like standard go/analysis code and port to the real
// framework by changing one import line. The interprocedural analyzers
// (detcheck, hotalloc) read the module call graph through Pass.Module
// instead, which x/tools has no counterpart for.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"sdem/internal/lint/callgraph"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow suppression comments.
	Name string
	// Doc is the one-paragraph help text shown by `sdemlint -help`.
	Doc string
	// Run applies the analyzer to a single package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the run-wide state shared by all passes of this analyzer:
	// the module call graph and a memo space.
	Module *Module

	diagnostics []Diagnostic
}

// Module is the whole-run view shared by every Pass of one analyzer: the
// module call graph and a memo space for derived structures (transitive
// closures) that should be computed once per run rather than once per
// package.
type Module struct {
	// Dir is the module root directory; for fixture tests, which have no
	// module on disk, it is the fixture root.
	Dir string
	// Graph is the call graph of every loaded package.
	Graph *callgraph.Graph

	memo map[string]any
}

// Memo returns the previously stored value under key, or computes, stores
// and returns it. Analyzers use it for run-wide derived state such as the
// hot-function closure.
func (m *Module) Memo(key string, compute func() any) any {
	if v, ok := m.memo[key]; ok {
		return v
	}
	v := compute()
	m.memo[key] = v
	return v
}

// Run builds the call graph of pkgs and applies each analyzer, with a
// fresh Module, to every package in check (a subset of pkgs). It returns
// the findings no //lint:allow comment suppresses, plus one finding for
// each //lint:allow naming an analyzer of the run that suppressed none of
// that analyzer's findings: a stale suppression would silently mask a
// future real finding on its line.
func Run(dir string, pkgs, check []callgraph.SourcePackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	graph := callgraph.Build(pkgs)
	var diags []Diagnostic
	for _, a := range analyzers {
		module := &Module{Dir: dir, Graph: graph, memo: make(map[string]any)}
		for _, pkg := range check {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Module:    module,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s over %s: %v", a.Name, pkg.Types.Path(), err)
			}
			diags = append(diags, pass.suppress()...)
		}
	}
	return diags, nil
}

// Diagnostic is one finding, positioned inside the package being analyzed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

type lineKey struct {
	file string
	line int
}

// allowRe matches suppression comments: //lint:allow <name>[,<name>...][: reason]
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([a-zA-Z0-9_,\- ]+?)(?::.*)?$`)

// suppress returns the pass's findings minus those a //lint:allow comment
// for this analyzer covers, plus a finding at every comment that names
// the analyzer and covered none. A comment covers the line it sits on
// (trailing-comment form) and the line below (standalone-comment form).
// "all" suppresses every analyzer and is never reported as stale.
func (p *Pass) suppress() []Diagnostic {
	type allow struct {
		pos            token.Position
		explicit, used bool
	}
	var allows []*allow
	at := make(map[lineKey]*allow) // by the comment's own line
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				for _, n := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' }) {
					if n == p.Analyzer.Name || n == "all" {
						a := &allow{pos: p.Fset.Position(c.Pos()), explicit: n != "all"}
						allows = append(allows, a)
						at[lineKey{a.pos.Filename, a.pos.Line}] = a
						break
					}
				}
			}
		}
	}
	var out []Diagnostic
	for _, d := range p.diagnostics {
		covered := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			if a := at[lineKey{d.Pos.Filename, line}]; a != nil {
				a.used, covered = true, true
			}
		}
		if !covered {
			out = append(out, d)
		}
	}
	for _, a := range allows {
		if a.explicit && !a.used {
			out = append(out, Diagnostic{
				Pos:      a.pos,
				Analyzer: p.Analyzer.Name,
				Message:  fmt.Sprintf("//lint:allow %s suppresses no %s finding here; remove it", p.Analyzer.Name, p.Analyzer.Name),
			})
		}
	}
	return out
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
