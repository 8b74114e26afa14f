// Command raqolint runs the RAQO-specific static-analysis suite over the
// module: determinism (map iteration, rand seeding), virtual-clock
// discipline in the simulators, units hygiene on exported APIs, telemetry
// cardinality, pool resets, mutex guards, goroutine shutdown and
// write-before-acknowledge. See internal/lint for the rules and the
// //raqolint:ignore suppression policy.
//
// Usage:
//
//	raqolint [-C dir] [-only maprange,clock,...] [-json]
//
// It lints the module rooted at -C (default ".") and exits non-zero on any
// finding. The analyzers' own self-test against the golden packages under
// internal/lint/testdata is `go test ./internal/lint`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"raqo/internal/lint"
)

func main() {
	moduleDir := flag.String("C", ".", "module root to lint")
	only := flag.String("only", "", "comma-separated analyzer or rule names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array (file, line, col, rule, message, suppressed) instead of human-readable lines; suppressed findings are included, marked")
	quiet := flag.Bool("q", false, "suppress the timing summary")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: raqolint [-C dir] [-only a,b] [-json]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s (rules: %s)\n", a.Name, a.Doc, strings.Join(a.Rules, ", "))
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nexit status:\n"+
			"  0  no findings (suppressed findings do not count)\n"+
			"  1  findings\n"+
			"  2  load, type-check, or usage error\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := selectAnalyzers(*only)
	start := time.Now()
	pkgs, stats, err := lint.LoadModule(*moduleDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raqolint:", err)
		os.Exit(2)
	}

	findings, silenced, timings := lint.RunDetail(pkgs, analyzers)

	if *asJSON {
		if err := writeJSON(os.Stdout, findings, silenced); err != nil {
			fmt.Fprintln(os.Stderr, "raqolint:", err)
			os.Exit(2)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if !*quiet {
		// The gate's cost stays visible: load split plus per-analyzer wall
		// time, every run.
		var parts []string
		for _, t := range timings {
			parts = append(parts, fmt.Sprintf("%s %s", t.Analyzer, t.Elapsed.Round(time.Microsecond*100)))
		}
		fmt.Printf("raqolint: %d packages (go list %v, typecheck %v); %s; total %v\n",
			stats.Packages, stats.List.Round(time.Millisecond), stats.Check.Round(time.Millisecond),
			strings.Join(parts, ", "), time.Since(start).Round(time.Millisecond))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "raqolint: %d findings\n", len(findings))
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable finding shape -json emits.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Rule       string `json:"rule"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// writeJSON emits every finding — live and suppressed — as one JSON
// array, so tooling can both gate on violations and audit what
// //raqolint:ignore directives are hiding. The array is position-sorted
// with suppressed entries appended after live ones.
func writeJSON(w *os.File, findings, silenced []lint.Finding) error {
	out := make([]jsonFinding, 0, len(findings)+len(silenced))
	add := func(fs []lint.Finding, suppressed bool) {
		for _, f := range fs {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Rule: f.Rule, Message: f.Msg, Suppressed: suppressed,
			})
		}
	}
	add(findings, false)
	add(silenced, true)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectAnalyzers filters the suite by -only (matching analyzer names or
// rule names); unknown names abort so a typo cannot silently disable a
// gate.
func selectAnalyzers(csv string) []*lint.Analyzer {
	all := lint.Analyzers()
	if csv == "" {
		return all
	}
	want := map[string]bool{}
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []*lint.Analyzer
	seen := map[string]bool{}
	for _, a := range all {
		match := want[a.Name]
		for _, r := range a.Rules {
			if want[r] {
				match = true
			}
			seen[r] = true
		}
		seen[a.Name] = true
		if match {
			out = append(out, a)
		}
	}
	var unknown []string
	for name := range want {
		if !seen[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "raqolint: unknown analyzers/rules: %s\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "raqolint: -only selected no analyzers")
		os.Exit(2)
	}
	return out
}
