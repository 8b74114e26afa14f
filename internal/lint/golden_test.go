package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// wantToken matches one quoted or backquoted regexp in a // want comment.
var wantToken = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one parsed `// want "regexp"` marker from golden source:
// the analyzers must report a finding on that line whose "[rule] message"
// rendering matches the pattern.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// expectations parses the // want markers of every file in the packages.
func expectations(pkgs []*Package) ([]*expectation, error) {
	var out []*expectation
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					const marker = "// want "
					i := indexOfWant(text)
					if i < 0 {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					toks := wantToken.FindAllString(text[i+len(marker)-1:], -1)
					if len(toks) == 0 {
						return nil, fmt.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, text)
					}
					for _, tok := range toks {
						pat := tok
						if tok[0] == '"' {
							var err error
							pat, err = strconv.Unquote(tok)
							if err != nil {
								return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, tok, err)
							}
						} else {
							pat = tok[1 : len(tok)-1]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
					}
				}
			}
		}
	}
	return out, nil
}

func indexOfWant(comment string) int {
	for i := 0; i+8 <= len(comment); i++ {
		if comment[i:i+8] == "// want " {
			return i
		}
	}
	return -1
}

// Golden checks findings against the // want markers in the packages'
// sources and returns a list of mismatches: findings nothing expected,
// and expectations nothing matched. An empty slice means the analyzers
// behave exactly as the golden files document.
//
// Findings and wants pair up per source line by maximum bipartite
// matching, not greedily: one line may carry several want patterns for
// findings from different analyzers, and a broad pattern is never
// allowed to steal the finding a narrower sibling needs when an
// assignment satisfying both exists.
func Golden(pkgs []*Package, findings []Finding) ([]string, error) {
	wants, err := expectations(pkgs)
	if err != nil {
		return nil, err
	}
	type lineKey struct {
		file string
		line int
	}
	wantsAt := map[lineKey][]*expectation{}
	for _, w := range wants {
		k := lineKey{w.file, w.line}
		wantsAt[k] = append(wantsAt[k], w)
	}

	var errs []string
	matchedBy := map[lineKey][]Finding{}
	for _, f := range findings {
		k := lineKey{f.Pos.Filename, f.Pos.Line}
		if len(wantsAt[k]) == 0 {
			errs = append(errs, fmt.Sprintf("unexpected finding: %s", f))
			continue
		}
		matchedBy[k] = append(matchedBy[k], f)
	}
	keys := make([]lineKey, 0, len(matchedBy))
	for k := range matchedBy {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		fs := matchedBy[k]
		ws := wantsAt[k]
		// adj[i] lists the wants finding i's rendering satisfies.
		adj := make([][]int, len(fs))
		for i, f := range fs {
			rendered := fmt.Sprintf("[%s] %s", f.Rule, f.Msg)
			for j, w := range ws {
				if w.re.MatchString(rendered) {
					adj[i] = append(adj[i], j)
				}
			}
		}
		owner := make([]int, len(ws)) // want j -> finding index, -1 if free
		for j := range owner {
			owner[j] = -1
		}
		var augment func(i int, seen []bool) bool
		augment = func(i int, seen []bool) bool {
			for _, j := range adj[i] {
				if seen[j] {
					continue
				}
				seen[j] = true
				if owner[j] == -1 || augment(owner[j], seen) {
					owner[j] = i
					return true
				}
			}
			return false
		}
		assigned := make([]bool, len(fs))
		for i := range fs {
			augment(i, make([]bool, len(ws)))
		}
		for j, i := range owner {
			if i >= 0 {
				ws[j].matched = true
				assigned[i] = true
			}
		}
		for i, ok := range assigned {
			if !ok {
				errs = append(errs, fmt.Sprintf("unexpected finding: %s", fs[i]))
			}
		}
	}
	for _, w := range wants {
		if !w.matched {
			errs = append(errs, fmt.Sprintf("%s:%d: no finding matched want %q", w.file, w.line, w.raw))
		}
	}
	return errs, nil
}

// loadTree loads every package under dir — a golden-test tree that `go
// list` ignores (testdata). Each directory containing Go files becomes one
// package whose Path is its dir-relative slash path, so scope-sensitive
// analyzers can be exercised by mirroring the real layout (for example
// testdata/src/internal/cluster/clockbad). Imports resolve against the
// enclosing module's export data, so golden packages may import real
// module packages such as raqo/internal/units.
func loadTree(dir string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	moduleDir := abs
	for {
		if _, err := os.Stat(filepath.Join(moduleDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(moduleDir)
		if parent == moduleDir {
			return nil, fmt.Errorf("lint: no go.mod above %s", abs)
		}
		moduleDir = parent
	}

	exports, _, err := exportData(moduleDir)
	if err != nil {
		return nil, err
	}

	type pkgDir struct {
		dir, path string
		goFiles   []string
	}
	var dirs []pkgDir
	err = filepath.Walk(abs, func(path string, fi os.FileInfo, err error) error {
		if err != nil || !fi.IsDir() {
			return err
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var goFiles []string
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				goFiles = append(goFiles, e.Name())
			}
		}
		if len(goFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		sort.Strings(goFiles)
		dirs = append(dirs, pkgDir{dir: path, path: filepath.ToSlash(rel), goFiles: goFiles})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].path < dirs[j].path })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, d := range dirs {
		p, err := checkDir(fset, imp, moduleDir, d.dir, d.path, d.goFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
