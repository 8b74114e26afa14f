package lint

import "go/ast"

// A forward dataflow analysis over a CFG. Facts are analyzer-defined
// lattice elements; nil is the distinguished "unreached" bottom that any
// fact meets to itself, so blocks that control never reaches contribute
// nothing at merges and are never themselves visited.
type flowAnalysis interface {
	// EntryFact is the fact holding at function entry.
	EntryFact() any
	// Transfer applies one simple node to a fact, returning the fact after
	// the node. Implementations must not mutate f in place.
	Transfer(f any, n ast.Node) any
	// Meet combines two reachable facts at a join point.
	Meet(a, b any) any
	// Equal reports whether two reachable facts are the same lattice
	// element, which is what terminates the fixpoint.
	Equal(a, b any) bool
}

// solve runs the forward fixpoint and returns every reachable block's
// in-fact. Finite lattices and monotone transfers terminate; the analyzers
// here use small per-function fact maps, so the worklist converges in a
// handful of passes.
func solve(cfg *CFG, a flowAnalysis) map[*Block]any {
	in := make(map[*Block]any, len(cfg.Blocks))
	in[cfg.Entry] = a.EntryFact()

	index := make(map[*Block]int, len(cfg.Blocks))
	for i, b := range cfg.Blocks {
		index[b] = i
	}

	work := []*Block{cfg.Entry}
	queued := map[*Block]bool{cfg.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		out := in[b]
		for _, n := range b.Nodes {
			out = a.Transfer(out, n)
		}
		for _, to := range b.Succs {
			cur, seen := in[to]
			var merged any
			if !seen || cur == nil {
				merged = out
			} else {
				merged = a.Meet(cur, out)
			}
			if !seen || !a.Equal(cur, merged) {
				in[to] = merged
				if !queued[to] {
					queued[to] = true
					work = append(work, to)
				}
			}
		}
	}
	return in
}

// visitFacts replays the solved facts through each reachable block,
// calling fn with the fact holding immediately before every node. This is
// the reporting pass: solve computes the fixpoint, visitFacts walks it.
func visitFacts(cfg *CFG, a flowAnalysis, in map[*Block]any, fn func(f any, n ast.Node)) {
	for _, b := range cfg.Blocks {
		f, ok := in[b]
		if !ok {
			continue // unreachable
		}
		for _, n := range b.Nodes {
			fn(f, n)
			f = a.Transfer(f, n)
		}
	}
}
