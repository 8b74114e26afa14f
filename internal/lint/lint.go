// Package lint implements raqolint, the RAQO-specific static-analysis
// suite. It loads every package in the module with go/parser and go/types
// and runs analyzers for project invariants the compiler cannot check and
// no test catches when they break:
//
//   - nondet: plan/cost/archive state must never depend on map iteration
//     order, and randomness must flow from explicitly seeded *rand.Rand
//     values (Figs 5-9 and 12-15 only reproduce if planning is
//     bit-deterministic).
//   - clock: the discrete-event simulators (cluster, execsim, scheduler,
//     the arbiter and cloud admission engine), the history store and the
//     fleet ring must only advance simulated time, never read the wall
//     clock.
//   - units: exported APIs must not pass sizes or dollars around as
//     anonymously named float64s, and units.Bytes must not mix with bare
//     numeric literals.
//   - telemetry: metric names and labels must be compile-time bounded,
//     or /metrics cardinality grows without limit under real traffic.
//   - pool: objects returned to a sync.Pool must be reset first, or the
//     hot-path pools recycle stale plan state across queries.
//   - leak: every `go` statement must observe a context, done channel,
//     or WaitGroup, so shutdown can reach the goroutine.
//
// One is flow-sensitive, built on the CFG + dataflow engine in
// cfg.go/dataflow.go:
//
//   - locks: fields annotated `// guarded by <mu>` may only be touched
//     with that mutex held on every control-flow path.
//
// Findings print as "file:line:col: [rule] message". A finding can be
// suppressed with a trailing or immediately preceding comment of the form
//
//	//raqolint:ignore <rule> <reason>
//
// The rule name and a non-empty reason are both required; a malformed
// directive is itself a finding (rule "ignore") and suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Package is one type-checked package under analysis.
type Package struct {
	// Path is the import path ("raqo/internal/plan"), or the
	// testdata-relative path for golden packages ("internal/plan/unitsbad").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	declCache map[types.Object]*ast.FuncDecl
}

// Analyzer is one named pass over a package.
type Analyzer struct {
	Name string
	Doc  string
	// Rules lists the finding rule names the analyzer can emit.
	Rules []string
	Run   func(p *Package) []Finding
}

// Analyzers returns the full RAQO suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NonDet(), Clock(), Units(), Telemetry(), Pool(),
		Locks(), Leak(),
	}
}

// KnownRules returns every rule name an //raqolint:ignore directive may
// reference.
func KnownRules() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Rules...)
	}
	sort.Strings(out)
	return out
}

// Timing records one analyzer's wall time across all packages, so the cost
// of the lint gate stays visible in `make lint` output.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// Run executes the analyzers over the packages, drops suppressed findings,
// validates every //raqolint:ignore directive, and returns the surviving
// findings sorted by position along with per-analyzer wall times.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []Timing) {
	kept, _, timings := RunDetail(pkgs, analyzers)
	return kept, timings
}

// RunDetail is Run with the suppressed findings kept visible: it returns
// the surviving findings, the findings an //raqolint:ignore directive
// silenced (machine consumers audit those), and the per-analyzer wall
// times. Both finding slices are sorted by position.
func RunDetail(pkgs []*Package, analyzers []*Analyzer) (kept, silenced []Finding, timings []Timing) {
	var findings []Finding
	timings = make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		for _, p := range pkgs {
			findings = append(findings, a.Run(p)...)
		}
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start)})
	}

	// Directives validate against the full registry, not the selected
	// subset: running `-only locks` must not re-flag a maprange ignore as
	// naming an unknown rule.
	known := map[string]bool{}
	for _, r := range KnownRules() {
		known[r] = true
	}
	var dirs []directive
	for _, p := range pkgs {
		ds, bad := directives(p, known)
		dirs = append(dirs, ds...)
		findings = append(findings, bad...)
	}

	for _, f := range findings {
		if suppressed(f, dirs) {
			silenced = append(silenced, f)
		} else {
			kept = append(kept, f)
		}
	}

	sortFindings(kept)
	sortFindings(silenced)
	return kept, silenced, timings
}

// sortFindings orders findings by file, line, column, then rule.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// inScope reports whether a package path falls under one of the directory
// scopes, matching both module paths ("raqo/internal/cluster") and
// testdata-relative paths ("internal/cluster/clockbad").
func inScope(path string, scopes ...string) bool {
	padded := "/" + path + "/"
	for _, s := range scopes {
		if strings.Contains(padded, "/"+s+"/") {
			return true
		}
	}
	return false
}

// finding builds a Finding at a node's position.
func (p *Package) finding(rule string, node ast.Node, format string, args ...interface{}) Finding {
	return Finding{Pos: p.Fset.Position(node.Pos()), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// pkgPathOf returns the import path of the package an identifier
// qualifies, or "" if the expression is not a package qualifier.
func (p *Package) pkgPathOf(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// funcDeclOf maps a function object to its declaration within this
// package, or nil for objects declared elsewhere.
func (p *Package) funcDeclOf(obj types.Object) *ast.FuncDecl {
	if p.declCache == nil {
		p.declCache = make(map[types.Object]*ast.FuncDecl)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					p.declCache[obj] = fd
				}
			}
		}
	}
	return p.declCache[obj]
}

// stripParens removes redundant parentheses around an expression.
func stripParens(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
