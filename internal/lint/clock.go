package lint

import (
	"go/ast"
)

// clockScopes are the discrete-event simulator packages: Figures 1-4 are
// virtual-time experiments and the workload arbiter promises bit-identical
// replays, so any wall-clock read here silently couples simulated results
// to host speed. internal/history is in scope for the same reason from
// the storage side: every timestamp is injected by the caller (wall in
// the server, virtual under the arbiter), so the store itself must never
// consult host time — that is what makes its files byte-reproducible.
// internal/fleet/ring is in scope because every fleet member must compute
// byte-identical key placement from the membership alone; a wall-clock
// (or any host-state) input would let two nodes disagree on an owner and
// break single-hop forwarding. The surrounding internal/fleet package is
// deliberately NOT in scope: the probe period and the forwarding and
// probe timeouts are real wall-clock concerns there.
// internal/cloud is in scope because it holds the one admission engine —
// the shared cluster is one of its configurations — and the priced
// layer bills, preempts and autoscales purely on the virtual clock; a
// wall-clock read there would make outcomes and dollar figures depend on
// host speed.
var clockScopes = []string{
	"internal/cluster", "internal/execsim", "internal/scheduler",
	"internal/arbiter", "internal/history", "internal/fleet/ring",
	"internal/cloud",
}

// wallClockFuncs are the time-package calls that read or wait on the wall
// clock. time.Duration and time.Time as plain types remain fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// Clock returns the virtual-clock analyzer (rule "clock"): simulator
// packages must only advance simulated time.
func Clock() *Analyzer {
	return &Analyzer{
		Name:  "clock",
		Doc:   "discrete-event simulators must never read the wall clock",
		Rules: []string{"clock"},
		Run:   runClock,
	}
}

func runClock(p *Package) []Finding {
	if !inScope(p.Path, clockScopes...) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if p.pkgPathOf(sel.X) != "time" || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			out = append(out, p.finding("clock", sel,
				"time.%s reads the wall clock inside a discrete-event simulator; advance virtual time instead", sel.Sel.Name))
			return true
		})
	}
	return out
}
