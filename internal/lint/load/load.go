// Package load type-checks the packages of this module for the sdemlint
// analyzers. It enumerates packages with `go list -json`, parses their
// non-test sources, and type-checks them in dependency order; standard
// library imports resolve through the go/importer source importer, so the
// whole pipeline works without a module proxy or prebuilt export data.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one type-checked module package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg mirrors the subset of `go list -json` output we need.
type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// goList runs `go list -deps -json` over the patterns in dir and decodes
// the JSON stream.
func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// loader type-checks module packages on demand, memoizing results so each
// package is checked once regardless of how many importers reach it.
type loader struct {
	fset    *token.FileSet
	meta    map[string]*listedPkg
	checked map[string]*Package
	pending map[string]bool
	stdlib  types.Importer
}

// Import implements types.Importer: module packages resolve through the
// loader itself, everything else through the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if m, ok := l.meta[path]; ok && !m.Standard {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.stdlib.Import(path)
}

func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	if l.pending[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.pending[path] = true
	defer delete(l.pending, path)

	m, ok := l.meta[path]
	if !ok {
		return nil, fmt.Errorf("package %s not listed", path)
	}
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
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
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	p := &Package{PkgPath: path, Dir: m.Dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.checked[path] = p
	return p, nil
}

// Packages loads and type-checks the module packages matching the given go
// list patterns (e.g. "./..."), rooted at dir. Only the packages named by
// the patterns are returned; their intra-module dependencies are checked as
// needed but not analyzed. Test files are excluded: the analyzers enforce
// production-code invariants, and tests keep local assertion tolerances.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		meta:    make(map[string]*listedPkg),
		checked: make(map[string]*Package),
		pending: make(map[string]bool),
	}
	l.stdlib = importer.ForCompiler(l.fset, "source", nil)
	for _, p := range listed {
		l.meta[p.ImportPath] = p
	}
	var out []*Package
	for _, m := range listed {
		if m.Standard || m.DepOnly || len(m.GoFiles) == 0 {
			continue
		}
		p, err := l.load(m.ImportPath)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}
