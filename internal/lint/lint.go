// Package lint wires the sdemlint analyzers to the package loader: it
// loads the requested packages, runs the analyzers over them through
// analysis.Run (which builds the module call graph), and sorts the
// surviving (non-suppressed) diagnostics into a stable order.
package lint

import (
	"sort"

	"sdem/internal/lint/analysis"
	"sdem/internal/lint/auditcheck"
	"sdem/internal/lint/callgraph"
	"sdem/internal/lint/detcheck"
	"sdem/internal/lint/floatcmp"
	"sdem/internal/lint/hotalloc"
	"sdem/internal/lint/load"
	"sdem/internal/lint/randsource"
	"sdem/internal/lint/sharedmut"
	"sdem/internal/lint/telemetrycheck"
	"sdem/internal/lint/tolconst"
	"sdem/internal/lint/unitcheck"
)

// Analyzers returns the full sdemlint suite in display order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		floatcmp.Analyzer,
		tolconst.Analyzer,
		unitcheck.Analyzer,
		auditcheck.Analyzer,
		randsource.Analyzer,
		telemetrycheck.Analyzer,
		detcheck.Analyzer,
		hotalloc.Analyzer,
		sharedmut.Analyzer,
	}
}

// Run loads the packages matching patterns under dir and applies the given
// analyzers, returning all findings sorted by file, line, column, then
// analyzer name — byte-stable regardless of package walk order.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	srcs := make([]callgraph.SourcePackage, len(pkgs))
	for i, pkg := range pkgs {
		srcs[i] = callgraph.SourcePackage{Fset: pkg.Fset, Files: pkg.Files, Types: pkg.Types, Info: pkg.Info}
	}
	diags, err := analysis.Run(dir, srcs, srcs, analyzers)
	if err != nil {
		return nil, err
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
