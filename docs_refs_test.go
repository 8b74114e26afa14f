package raqo_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// referenceDocs describe the tree: the design, the overview and the verify
// recipe.
var referenceDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

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
	// goTestFunc matches the declaration of one.
	goTestFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*)\(`)
	// backticked matches a code span; fileName, a word in one that names a
	// file by its extension.
	backticked = regexp.MustCompile("`[^`\n]+`")
	fileName   = regexp.MustCompile(`\.(?:go|txt|json|jsonl|md|sh)$`)
)

// TestDocReferencesExist keeps the docs' references to the tree real: every
// internal/, cmd/ or scripts/ path DESIGN.md, README.md and the verify
// skill name must exist, every Test, Fuzz or Benchmark name they cite
// must be declared in some _test.go file, every `make` target they name
// must be a Makefile rule, and every backticked word ending in .go, .txt,
// .json, .jsonl, .md or .sh must be the suffix of a tracked path. A name
// followed by (or, for a backticked word, holding) "<", "{" or "*" is a
// pattern ("internal/<pkg>/doc.go"), not a name, and is skipped.
func TestDocReferencesExist(t *testing.T) {
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
	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range goTestFunc.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range referenceDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
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
			if name := text[loc[0]:loc[1]]; !declared[name] {
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

// isPattern reports whether the name ending at text[end] continues as a
// pattern rather than a literal name.
func isPattern(text string, end int) bool {
	return end < len(text) && strings.ContainsRune("<{*", rune(text[end]))
}

// lineOf returns the 1-based line of byte offset off in text.
func lineOf(text string, off int) int { return strings.Count(text[:off], "\n") + 1 }
