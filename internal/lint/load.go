package lint

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
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// LoadStats reports what loading cost, for the `make lint` timing line.
type LoadStats struct {
	Packages int
	List     time.Duration // `go list -deps -export` (build-cache warm-up)
	Check    time.Duration // parse + typecheck of the analyzed packages
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// exportData maps import paths to compiled export-data files by running
// `go list -deps -export` at the module root. The go command fills the
// build cache as needed, so the linter never re-typechecks dependencies
// from source: each analyzed package is checked against its dependencies'
// compiled export data, exactly like the compiler sees them.
func exportData(moduleDir string) (map[string]string, []listPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = moduleDir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, nil, fmt.Errorf("lint: go list: %s", msg)
	}
	exports := make(map[string]string)
	var module []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			module = append(module, p)
		}
	}
	return exports, module, nil
}

// exportImporter resolves imports from compiled export data.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// checkDir parses and type-checks one directory's non-test Go files as the
// package `path`. File names are recorded relative to root so findings
// print repo-relative positions.
func checkDir(fset *token.FileSet, imp types.Importer, root, dir, path string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		abs := filepath.Join(dir, name)
		src, err := os.ReadFile(abs)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			rel = abs
		}
		f, err := parser.ParseFile(fset, filepath.ToSlash(rel), src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typechecking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// LoadModule loads every package of the module rooted at dir (excluding
// test files and testdata trees, which `go list ./...` already skips).
func LoadModule(dir string) ([]*Package, *LoadStats, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	stats := &LoadStats{}
	start := time.Now()
	exports, module, err := exportData(abs)
	if err != nil {
		return nil, nil, err
	}
	stats.List = time.Since(start)

	start = time.Now()
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, lp := range module {
		if len(lp.GoFiles) == 0 {
			continue
		}
		p, err := checkDir(fset, imp, abs, lp.Dir, lp.ImportPath, lp.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	stats.Check = time.Since(start)
	stats.Packages = len(pkgs)
	return pkgs, stats, nil
}
