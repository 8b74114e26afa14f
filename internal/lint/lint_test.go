package lint

import (
	"go/token"
	"strings"
	"testing"
	"time"
)

// TestGolden runs the full analyzer suite over the testdata tree and
// verifies every finding against the `// want` markers — at least one
// positive and one negative case per analyzer lives there.
func TestGolden(t *testing.T) {
	pkgs, err := loadTree("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run(pkgs, Analyzers())
	mismatches, err := Golden(pkgs, findings)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Error(m)
	}

	// Coverage guard: the golden tree must exercise every rule with at
	// least one positive, so an analyzer that silently stops firing fails
	// here rather than going dark.
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.Rule] = true
	}
	for _, rule := range []string{
		"maprange", "randsrc", "clock", "units", "unitmix", "money", "metric", "pool",
		"locks", "leak",
	} {
		if !seen[rule] {
			t.Errorf("golden tree has no positive case for rule %q", rule)
		}
	}
}

// TestCleanGoldenPackages is the negative-coverage twin of TestGolden's
// positive guard: every analyzer must own a golden package named
// "<analyzer>ok" that exercises its sanctioned idioms and yields zero
// findings, so an analyzer that starts over-firing fails here rather
// than only tripping on the module tree.
func TestCleanGoldenPackages(t *testing.T) {
	pkgs, err := loadTree("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run(pkgs, Analyzers())
	for _, a := range Analyzers() {
		suffix := "/" + a.Name + "ok"
		found := false
		for _, p := range pkgs {
			if !strings.HasSuffix(p.Path, suffix) {
				continue
			}
			found = true
			for _, f := range findings {
				if strings.Contains(f.Pos.Filename, suffix+"/") {
					t.Errorf("clean golden package %s for analyzer %q has finding: %s", p.Path, a.Name, f)
				}
			}
		}
		if !found {
			t.Errorf("analyzer %q has no clean golden package (want one named %q under testdata/src)", a.Name, a.Name+"ok")
		}
	}
}

// TestMalformedIgnoreDirectives loads the badignore tree: each broken
// //raqolint:ignore form must surface as an "ignore" finding, and a
// reason-less directive must not suppress the finding beneath it.
func TestMalformedIgnoreDirectives(t *testing.T) {
	pkgs, err := loadTree("testdata/badignore")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run(pkgs, Analyzers())
	byRule := map[string][]Finding{}
	for _, f := range findings {
		byRule[f.Rule] = append(byRule[f.Rule], f)
	}
	if got := len(byRule["ignore"]); got != 4 {
		t.Errorf("ignore findings = %d, want 4 (bare, unknown rule, and two reason-less): %v", got, byRule["ignore"])
	}
	if got := len(byRule["maprange"]); got != 1 {
		t.Errorf("maprange findings = %d, want 1 — a reason-less directive must not suppress", got)
	}
	var msgs []string
	for _, f := range byRule["ignore"] {
		msgs = append(msgs, f.Msg)
	}
	all := strings.Join(msgs, "\n")
	for _, want := range []string{
		"needs a rule name and a reason",
		"unknown rule nosuchrule",
		"needs a reason",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("ignore findings missing %q:\n%s", want, all)
		}
	}
}

// TestSuppressedWindow pins the directive window (same line or the line
// directly above) and the rule that malformed-directive findings can
// never themselves be suppressed.
func TestSuppressedWindow(t *testing.T) {
	dirs := []directive{{file: "a.go", line: 10, rule: "clock", reason: "log decoration"}}
	at := func(file string, line int, rule string) Finding {
		return Finding{Pos: token.Position{Filename: file, Line: line}, Rule: rule}
	}
	cases := []struct {
		name string
		f    Finding
		want bool
	}{
		{"same line", at("a.go", 10, "clock"), true},
		{"line below directive", at("a.go", 11, "clock"), true},
		{"two lines below", at("a.go", 12, "clock"), false},
		{"line above directive", at("a.go", 9, "clock"), false},
		{"other rule", at("a.go", 10, "maprange"), false},
		{"other file", at("b.go", 10, "clock"), false},
		{"ignore never suppressible", at("a.go", 10, "ignore"), false},
	}
	for _, c := range cases {
		if got := suppressed(c.f, dirs); got != c.want {
			t.Errorf("%s: suppressed = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestKnownRules keeps the rule registry and the analyzers in sync.
func TestKnownRules(t *testing.T) {
	known := map[string]bool{}
	for _, r := range KnownRules() {
		known[r] = true
	}
	for _, a := range Analyzers() {
		for _, r := range a.Rules {
			if !known[r] {
				t.Errorf("rule %q of analyzer %q missing from KnownRules", r, a.Name)
			}
		}
	}
}

// TestSelfLint runs the suite over the module itself: the tree must stay
// free of unsuppressed findings, which is the same gate `make lint`
// enforces in CI — and the full load+analyze pass must fit a generous
// wall-clock budget, so the CFG/fixpoint layer cannot silently turn
// `make check` into a coffee break.
func TestSelfLint(t *testing.T) {
	const budget = 30 * time.Second
	start := time.Now()
	pkgs, _, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run(pkgs, Analyzers())
	if elapsed := time.Since(start); elapsed > budget {
		t.Errorf("full-tree lint took %v, over the %v budget — a flow analysis is likely no longer converging cheaply", elapsed, budget)
	}
	for _, f := range findings {
		t.Errorf("module lint finding: %s", f)
	}
}
