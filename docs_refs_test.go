package raqo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"raqo/internal/fleet/harness"
)

// referenceDocs describe the tree: the design, the overview and the verify
// recipe.
var referenceDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

// sectionCiters are the other files that point into DESIGN.md by section
// number; non-test Go comments are checked too. CHANGES.md and ROADMAP.md
// are history and are not.
var sectionCiters = []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile"}

var (
	// docPath matches a repository path as the docs write it, with an
	// optional "./" (a go package pattern) in front.
	docPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])(?:\./)?((?:internal|cmd|scripts)/[A-Za-z0-9_./-]*)`)
	// docTest matches a test, fuzz target or benchmark name.
	docTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*`)
	// qualifier matches the ".Name" of a package-qualified identifier
	// ("internal/core.TestGoldenDecisions"), which is not part of the path.
	qualifier = regexp.MustCompile(`\.[A-Z]`)
	// docMake matches a backticked make invocation's target.
	docMake = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	// makeTarget matches a Makefile rule's target.
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// backticked matches a code span; fileName, a word in one that names a
	// file by its extension.
	backticked = regexp.MustCompile("`[^`\n]+`")
	fileName   = regexp.MustCompile(`\.(?:go|txt|json|jsonl|md|sh)$`)
	// heading matches a numbered DESIGN.md section; sectionRef, a pointer
	// to one from another file ("DESIGN.md §9", "DESIGN §9/§14"); digitRef,
	// any numbered reference inside DESIGN.md (roman ones cite the paper).
	heading    = regexp.MustCompile(`(?m)^## (\d+)\.`)
	sectionRef = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\d+(?:\s*[/,]\s*§\d+)*`)
	digitRef   = regexp.MustCompile(`§(\d+)`)
	// dotted matches a chain of dot-joined identifiers not itself part of a
	// longer name ("core.Options.MemoizeCosts", "Node.Equal").
	dotted = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`)
	// raqoCall matches a raqo command line as the docs write it: what
	// precedes "raqo" (to tell `go run ./cmd/raqo` from a package path),
	// then the words up to a comment, a code span's end or a shell
	// operator. cliFlag matches a flag among those words ("-json",
	// "-trained=false", "[-planner"); usageCommand, a command of the
	// binary's usage text; helpFlag, a flag of a command's -h text.
	raqoCall     = regexp.MustCompile("(\\S*)\\braqo[ \t]+([^\n#`|;&]*)")
	cliFlag      = regexp.MustCompile(`^\[?-([a-zA-Z][A-Za-z0-9-]*)`)
	usageCommand = regexp.MustCompile(`(?m)^  raqo ([a-z]+) `)
	helpFlag     = regexp.MustCompile(`(?m)^  -([A-Za-z0-9-]+)`)
)

// TestDocReferencesExist keeps the docs' references to the tree real.
//
//   - paths: every internal/, cmd/ or scripts/ path DESIGN.md, README.md and
//     the verify skill name must exist, every Test, Fuzz or Benchmark name
//     they cite must be declared in some _test.go file, every `make` target
//     they name must be a Makefile rule, and every backticked word ending in
//     .go, .txt, .json, .jsonl, .md or .sh must be the suffix of a tracked
//     path. A name followed by (or, for a backticked word, holding) "<", "{"
//     or "*" is a pattern ("internal/<pkg>/doc.go"), not a name, and is
//     skipped.
//   - modulemap: every directory under internal/ that holds non-test Go has
//     a row in DESIGN.md §2's table.
//   - sections: every "DESIGN.md §N" in sectionCiters and in non-test Go
//     comments, and every digit §N inside DESIGN.md, names a "## N."
//     heading of DESIGN.md.
//   - identifiers: every backticked `pkg.Name`, `pkg.Type.Member` and
//     `Type.Member` in the reference docs, where pkg is a package of the
//     module and the names are capitalised, is declared (see resolve).
//   - flags: every `raqo <command> -flag` the reference docs write names
//     a command the built binary's usage lists and a flag that command's
//     -h output defines; a flag written with no command ("raqo -json")
//     must be defined by some command. DESIGN.md §15 names removed flags
//     on purpose and is not checked.
func TestDocReferencesExist(t *testing.T) {
	tree := parseTree(t)
	design := readDoc(t, "DESIGN.md")
	t.Run("paths", func(t *testing.T) { checkPaths(t, tree) })
	t.Run("modulemap", func(t *testing.T) { checkModuleMap(t, tree, design) })
	t.Run("sections", func(t *testing.T) { checkSections(t, tree, design) })
	t.Run("identifiers", func(t *testing.T) { checkIdentifiers(t, tree) })
	t.Run("flags", checkFlags)
}

// goTree is what the checks need of the module's Go source.
type goTree struct {
	// tests holds every Test, Fuzz and Benchmark function of a _test.go
	// file.
	tests map[string]bool
	// pkgs maps a package name to its declarations; several directories
	// with one name share an entry. Package main is left out.
	pkgs map[string]*pkgDecls
	// types maps a type name to the members of every type so named.
	types map[string]map[string]bool
	// codeDirs lists each directory under internal/ with non-test Go.
	codeDirs []string
	// comments holds every comment of a non-test Go file.
	comments []*ast.Comment
	fset     *token.FileSet
}

// pkgDecls holds one package's top-level names, its test files' top-level
// names, and per type its methods, struct fields and interface methods.
type pkgDecls struct {
	names, testNames map[string]bool
	members          map[string]map[string]bool
}

// parseTree parses every Go file of the module outside testdata and
// dot-directories.
func parseTree(t *testing.T) *goTree {
	tree := &goTree{
		tests: map[string]bool{},
		pkgs:  map[string]*pkgDecls{},
		types: map[string]map[string]bool{},
		fset:  token.NewFileSet(),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(tree.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest {
			for _, g := range f.Comments {
				tree.comments = append(tree.comments, g.List...)
			}
			if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") && !slices.Contains(tree.codeDirs, dir) {
				tree.codeDirs = append(tree.codeDirs, dir)
			}
		}
		tree.add(f, isTest)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// add records one file's declarations.
func (tree *goTree) add(f *ast.File, isTest bool) {
	name := strings.TrimSuffix(f.Name.Name, "_test")
	p := tree.pkgs[name]
	if p == nil {
		p = &pkgDecls{names: map[string]bool{}, testNames: map[string]bool{}, members: map[string]map[string]bool{}}
		if name != "main" {
			tree.pkgs[name] = p
		}
	}
	top := p.names
	if isTest {
		top = p.testNames
	}
	member := func(typ, m string) {
		for _, set := range []map[string]map[string]bool{p.members, tree.types} {
			if set[typ] == nil {
				set[typ] = map[string]bool{}
			}
			set[typ][m] = true
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				top[decl.Name.Name] = true
				if isTest && docTest.MatchString(decl.Name.Name) {
					tree.tests[decl.Name.Name] = true
				}
				continue
			}
			if typ := receiverType(decl.Recv.List[0].Type); typ != "" {
				member(typ, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						top[n.Name] = true
					}
				case *ast.TypeSpec:
					top[spec.Name.Name] = true
					var fields *ast.FieldList
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						fields = typ.Fields
					case *ast.InterfaceType:
						fields = typ.Methods
					}
					if fields == nil {
						continue
					}
					for _, field := range fields.List {
						for _, n := range field.Names {
							member(spec.Name.Name, n.Name)
						}
						if len(field.Names) == 0 {
							if typ := receiverType(field.Type); typ != "" {
								member(spec.Name.Name, typ)
							}
						}
					}
				}
			}
		}
	}
}

// receiverType returns the type name of a method receiver or embedded
// field: T, *T, T[K] and pkg.T give T.
func receiverType(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

func checkPaths(t *testing.T, tree *goTree) {
	out, err := exec.Command("git", "ls-files").Output()
	if err != nil {
		t.Fatalf("git ls-files: %v", err)
	}
	files := strings.Fields(string(out))
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	for _, doc := range referenceDocs {
		text := readDoc(t, doc)
		for _, loc := range docPath.FindAllStringSubmatchIndex(text, -1) {
			end := loc[3]
			if isPattern(text, end) {
				continue
			}
			path := strings.TrimSuffix(text[loc[2]:end], "/...")
			if q := qualifier.FindStringIndex(path); q != nil {
				path = path[:q[0]]
			}
			path = strings.TrimRight(path, ".-/")
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s:%d: `%s` does not exist", doc, lineOf(text, loc[2]), path)
			}
		}
		for _, loc := range docMake.FindAllStringSubmatchIndex(text, -1) {
			if target := text[loc[2]:loc[3]]; !isPattern(text, loc[3]) && !targets[target] {
				t.Errorf("%s:%d: make %s is not a Makefile target", doc, lineOf(text, loc[2]), target)
			}
		}
		for _, loc := range docTest.FindAllStringIndex(text, -1) {
			if name := text[loc[0]:loc[1]]; !tree.tests[name] {
				t.Errorf("%s:%d: %s is not declared in any _test.go file", doc, lineOf(text, loc[0]), name)
			}
		}
		for _, loc := range backticked.FindAllStringIndex(text, -1) {
			for _, word := range strings.Fields(text[loc[0]+1 : loc[1]-1]) {
				tracked := func(p string) bool { return strings.HasSuffix(p, word) }
				if fileName.MatchString(word) && !strings.ContainsAny(word, "<{*") && !slices.ContainsFunc(files, tracked) {
					t.Errorf("%s:%d: `%s` is not the suffix of a tracked path", doc, lineOf(text, loc[0]), word)
				}
			}
		}
	}
}

// checkModuleMap requires a §2 table row, keyed by the backticked path in
// its first cell, for every directory under internal/ with non-test Go.
func checkModuleMap(t *testing.T, tree *goTree, design string) {
	rows := map[string]bool{}
	for _, line := range strings.Split(sectionText(design, "2"), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, span := range backticked.FindAllString(cells[1], -1) {
			rows[strings.Trim(span, "`")] = true
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md has no §2 module table")
	}
	for _, dir := range tree.codeDirs {
		if !rows[dir] {
			t.Errorf("DESIGN.md §2 has no row for `%s`", dir)
		}
	}
}

// sectionText returns DESIGN.md's section "## n." up to the next heading.
func sectionText(design, n string) string {
	start := strings.Index(design, "\n## "+n+".")
	if start < 0 {
		return ""
	}
	body := design[start+1:]
	if end := strings.Index(body, "\n## "); end >= 0 {
		body = body[:end]
	}
	return body
}

func checkSections(t *testing.T, tree *goTree, design string) {
	sections := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	check := func(where string, ref string) {
		for _, m := range digitRef.FindAllStringSubmatch(ref, -1) {
			if !sections[m[1]] {
				t.Errorf("%s: %q names no \"## %s.\" heading in DESIGN.md", where, ref, m[1])
			}
		}
	}
	for _, loc := range digitRef.FindAllStringIndex(design, -1) {
		check("DESIGN.md:"+strconv.Itoa(lineOf(design, loc[0])), design[loc[0]:loc[1]])
	}
	for _, doc := range sectionCiters {
		text := readDoc(t, doc)
		for _, loc := range sectionRef.FindAllStringIndex(text, -1) {
			check(doc+":"+strconv.Itoa(lineOf(text, loc[0])), text[loc[0]:loc[1]])
		}
	}
	for _, c := range tree.comments {
		for _, ref := range sectionRef.FindAllString(c.Text, -1) {
			check(tree.fset.Position(c.Pos()).String(), ref)
		}
	}
}

func checkIdentifiers(t *testing.T, tree *goTree) {
	for _, doc := range referenceDocs {
		text := readDoc(t, doc)
		for _, loc := range backticked.FindAllStringIndex(text, -1) {
			for _, m := range dotted.FindAllStringSubmatch(text[loc[0]+1:loc[1]-1], -1) {
				if name, ok := tree.resolve(strings.Split(m[1], ".")); !ok {
					t.Errorf("%s:%d: `%s` is not declared", doc, lineOf(text, loc[0]), name)
				}
			}
		}
	}
}

// resolve checks one dotted chain and reports the part it checked. A
// chain starting with a package of the module reads as pkg.Name (a
// top-level name, a Test/Fuzz/Benchmark function of its _test.go files,
// or the shorthand for a method or field of one of its types) or
// pkg.Type.Member. A chain starting with a capitalised name reads as
// Type.Member, against every type so named. Anything else (a variable, a
// stdlib package, a file name) is not checked, nor is a lowercase Name or
// Member (metric names such as core.joint_over_qo_ratio, unexported
// names).
func (tree *goTree) resolve(chain []string) (string, bool) {
	exported := func(s string) bool { return s[0] >= 'A' && s[0] <= 'Z' }
	if p := tree.pkgs[chain[0]]; p != nil {
		if !exported(chain[1]) {
			return "", true
		}
		name := chain[0] + "." + chain[1]
		if len(chain) > 2 && exported(chain[2]) {
			return name + "." + chain[2], p.names[chain[1]] && p.members[chain[1]][chain[2]]
		}
		if docTest.MatchString(chain[1]) {
			return name, p.testNames[chain[1]]
		}
		if p.names[chain[1]] {
			return name, true
		}
		for _, members := range p.members {
			if members[chain[1]] {
				return name, true
			}
		}
		return name, false
	}
	if exported(chain[0]) && exported(chain[1]) {
		return chain[0] + "." + chain[1], tree.types[chain[0]][chain[1]]
	}
	return "", true
}

// cliFlags builds the raqo binary and reads its command list from the
// usage text and each command's flags from its -h text. The "" entry
// holds every command's flags.
func cliFlags(t *testing.T) map[string]map[string]bool {
	bin, err := harness.Build(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Both exit non-zero: usage with no command, flag.ErrHelp after -h.
	usage, _ := exec.Command(bin).CombinedOutput()
	commands := map[string]map[string]bool{"": {}}
	for _, m := range usageCommand.FindAllStringSubmatch(string(usage), -1) {
		help, _ := exec.Command(bin, m[1], "-h").CombinedOutput()
		flags := map[string]bool{}
		for _, f := range helpFlag.FindAllStringSubmatch(string(help), -1) {
			flags[f[1]], commands[""][f[1]] = true, true
		}
		commands[m[1]] = flags
	}
	if len(commands["optimize"]) == 0 {
		t.Fatalf("no optimize flags read from the binary; usage:\n%s", usage)
	}
	return commands
}

func checkFlags(t *testing.T) {
	commands := cliFlags(t)
	for _, doc := range referenceDocs {
		text := readDoc(t, doc)
		if doc == "DESIGN.md" {
			removed := sectionText(text, "15")
			text = strings.Replace(text, removed, strings.Repeat("\n", strings.Count(removed, "\n")), 1)
		}
		for _, loc := range raqoCall.FindAllStringSubmatchIndex(text, -1) {
			words := strings.Fields(text[loc[4]:loc[5]])
			if len(words) == 0 {
				continue
			}
			cmd := ""
			if strings.ContainsAny(words[0], "<{*") {
				continue // a pattern: "raqo <command> -flag"
			} else if !cliFlag.MatchString(words[0]) {
				cmd = words[0]
				words = words[1:]
			} else if strings.HasSuffix(text[loc[2]:loc[3]], "cmd/") {
				continue // the package path in `go test ./cmd/raqo -run ...`
			}
			var named []string
			for _, w := range words {
				if m := cliFlag.FindStringSubmatch(w); m != nil {
					named = append(named, m[1])
				}
			}
			line := lineOf(text, loc[0])
			flags, known := commands[cmd]
			if len(named) > 0 && !known {
				t.Errorf("%s:%d: raqo %s is not a command of raqo's usage", doc, line, cmd)
				continue
			}
			for _, f := range named {
				if !flags[f] {
					t.Errorf("%s:%d: %s defines no -%s", doc, line, strings.TrimSpace("raqo "+cmd), f)
				}
			}
		}
	}
}

func readDoc(t *testing.T, doc string) string {
	src, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// isPattern reports whether the name ending at text[end] continues as a
// pattern rather than a literal name.
func isPattern(text string, end int) bool {
	return end < len(text) && strings.ContainsRune("<{*", rune(text[end]))
}

// lineOf returns the 1-based line of byte offset off in text.
func lineOf(text string, off int) int { return strings.Count(text[:off], "\n") + 1 }
