package hotalloc_test

import (
	"testing"

	"sdem/internal/lint/analysis"
	"sdem/internal/lint/analysistest"
	"sdem/internal/lint/hotalloc"
)

// TestHotalloc loads hotaux before hotalloc, so the parse order of the
// roots disagrees with their package-path order, which names the root.
func TestHotalloc(t *testing.T) {
	analysistest.RunAnalyzers(t, ".", []*analysis.Analyzer{hotalloc.Analyzer}, "hotaux", "hotalloc")
}
