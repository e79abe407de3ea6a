// Package analysistest runs analyzers over fixture packages laid out
// under testdata/src/<pkg>, mirroring the x/tools analysistest contract:
// a `// want "regexp"` comment on a source line asserts that the analyzer
// reports a matching diagnostic on that line, and every reported
// diagnostic must be matched by a want comment.
//
// RunAnalyzers loads every fixture package reachable from the named ones
// and hands them to analysis.Run, the same driver lint.Run uses on the
// module: the call graph spans all loaded fixtures, and findings come
// from the named packages.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sdem/internal/lint/analysis"
	"sdem/internal/lint/callgraph"
)

// fixtureLoader resolves imports against testdata/src first, so fixtures
// can model cross-package invariants (e.g. a fake schedule package) without
// touching the real module.
type fixtureLoader struct {
	root    string // testdata/src
	fset    *token.FileSet
	checked map[string]*types.Package
	files   map[string][]*ast.File
	infos   map[string]*types.Info
	order   []string // completed loads
	stdlib  types.Importer
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	dir := filepath.Join(l.root, path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, _, err := l.load(path)
		return pkg, err
	}
	return l.stdlib.Import(path)
}

func (l *fixtureLoader) load(path string) (*types.Package, []*ast.File, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, l.files[path], nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	l.checked[path] = pkg
	l.files[path] = files
	l.infos[path] = info
	l.order = append(l.order, path)
	return pkg, files, nil
}

// Run applies one analyzer to testdata/src/<pkgPath> under dir and checks
// its diagnostics against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	RunAnalyzers(t, dir, []*analysis.Analyzer{a}, pkgPath)
}

// RunAnalyzers applies the analyzers to the named fixture packages through
// analysis.Run. All reachable fixture packages are loaded into the call
// graph, but diagnostics are asserted only for the named packages —
// dependency fixtures provide context, not findings.
func RunAnalyzers(t *testing.T, dir string, analyzers []*analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &fixtureLoader{
		root:    filepath.Join(dir, "testdata", "src"),
		fset:    token.NewFileSet(),
		checked: make(map[string]*types.Package),
		files:   make(map[string][]*ast.File),
		infos:   make(map[string]*types.Info),
	}
	l.stdlib = importer.ForCompiler(l.fset, "source", nil)
	for _, pkgPath := range pkgPaths {
		if _, _, err := l.load(pkgPath); err != nil {
			t.Fatalf("loading fixture %s: %v", pkgPath, err)
		}
	}
	src := func(path string) callgraph.SourcePackage {
		return callgraph.SourcePackage{Fset: l.fset, Files: l.files[path], Types: l.checked[path], Info: l.infos[path]}
	}
	all := make([]callgraph.SourcePackage, len(l.order))
	for i, path := range l.order {
		all[i] = src(path)
	}
	check := make([]callgraph.SourcePackage, len(pkgPaths))
	for i, path := range pkgPaths {
		check[i] = src(path)
	}
	diags, err := analysis.Run(l.root, all, check, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	var wantFiles []*ast.File
	for _, path := range pkgPaths {
		wantFiles = append(wantFiles, l.files[path]...)
	}
	wants := collectWants(t, l.fset, wantFiles)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`//\s*want\s+(".*")\s*$`)

// collectWants extracts `// want "re"` expectations from fixture comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				quoted, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("bad want comment %q: %v", c.Text, err)
				}
				re, err := regexp.Compile(quoted)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", quoted, err)
				}
				pos := fset.Position(c.Pos())
				out = append(out, want{pos.Filename, pos.Line, re})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}
