// Package selinger implements the classic System R bottom-up dynamic
// programming join-ordering algorithm over left-deep trees (Selinger et
// al., SIGMOD 1979), with the per-operator costing hook that lets RAQO plug
// resource planning into the enumeration.
//
// The DP runs over connected subsets only. Level s+1's masks are the
// one-leaf extensions of the masks level s planned by a leaf joinable with
// them, visited in ascending mask order; a subset the join graph does not
// connect is never generated, and a leaf not joinable with the rest of a
// mask is skipped before any join is built. The candidates, their order
// and so every costing call must stay those of a sweep over all 2^n masks:
// the resource-plan cache answers by what it was asked before.
//
// The DP's working state — the best-plan table, the per-level mask buffer,
// the join scratch node and the node arena the winning sub-plans are
// materialized in — lives in a sync.Pool of dpState values, so repeated
// planning calls allocate near-zero: candidates are costed in a reusable
// scratch node, only per-mask winners are materialized (in the arena), and
// the final plan is deep-copied out before the state is recycled.
package selinger

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"raqo/internal/optimizer"
	"raqo/internal/plan"
)

// MaxRelations bounds the DP: the table is O(2^n). Queries beyond this are
// for the randomized planner (the paper uses Selinger on TPC-H and the
// randomized planner for the 100-table scaling experiments).
const MaxRelations = 22

// sliceTableMax is the largest relation count for which the DP table is a
// dense mask-indexed slice (2^n entries); beyond it the table falls back
// to a map to avoid multi-megabyte slabs for the rare huge query.
const sliceTableMax = 16

// Planner is a Selinger-style left-deep query planner.
type Planner struct {
	// Coster prices each candidate join operator (and, in RAQO mode, plans
	// its resources). Required.
	Coster optimizer.OperatorCoster

	// Ctx, when non-nil, is observed between DP candidates: once it is
	// cancelled, Plan stops costing further masks and returns ctx.Err()
	// promptly, so an abandoned request stops burning CPU mid-search. nil
	// plans to completion (context.Background semantics).
	Ctx context.Context
}

type entry struct {
	node *plan.Node
	cost optimizer.OpCost
}

// candidate is the outcome of costing every (subset, algo) pair for one
// mask: a recipe for the winning join, recorded by value so losing
// candidates never materialize plan nodes. Only the winner is rebuilt in
// the arena.
type candidate struct {
	rest uint32 // mask of the left (smaller-subset) input
	leaf int    // index of the right input relation
	algo plan.JoinAlgo
	res  plan.Resources
	cost optimizer.OpCost // cumulative cost of the subtree
	ok   bool
}

// dpState is the reusable working memory of one Plan call.
type dpState struct {
	arena    plan.Arena
	leaves   []*plan.Node
	adj      []uint64 // per leaf, the leaves it is joinable with (one word: n <= MaxRelations)
	slice    []entry  // dense table, mask-indexed (n <= sliceTableMax)
	m        map[uint32]entry
	useSlice bool
	level    []uint32 // masks of the current DP level, ascending
	next     []uint64 // 2^n-bit set of the next level's masks; all zero between levels
	scratch  plan.JoinScratch
}

var statePool = sync.Pool{New: func() any { return new(dpState) }}

// prepare sizes the table and the next-level bitmap for an n-relation
// query and clears any previous run's entries (dpState.release drops the
// node pointers; the table cells themselves are cleared here, bounded to
// the 2^n cells this query uses).
func (st *dpState) prepare(n int) {
	if words := (1<<uint(n) + 63) / 64; cap(st.next) < words {
		st.next = make([]uint64, words)
	} else {
		st.next = st.next[:words]
	}
	if n <= sliceTableMax {
		size := 1 << uint(n)
		if cap(st.slice) < size {
			st.slice = make([]entry, size)
		} else {
			st.slice = st.slice[:size]
			for i := range st.slice {
				st.slice[i] = entry{}
			}
		}
		st.useSlice = true
		return
	}
	if st.m == nil {
		st.m = make(map[uint32]entry, 1<<12)
	} else {
		clear(st.m)
	}
	st.useSlice = false
}

// release recycles the arena and drops all plan-node pointers so a pooled
// state never retains a previous query's plans.
//
//raqo:noalloc
func (st *dpState) release() {
	st.arena.Reset()
	for i := range st.leaves {
		st.leaves[i] = nil
	}
	st.leaves = st.leaves[:0]
	if st.useSlice {
		for i := range st.slice {
			st.slice[i] = entry{}
		}
	} else if st.m != nil {
		clear(st.m)
	}
	st.level = st.level[:0]
}

//raqo:noalloc
func (st *dpState) get(mask uint32) (entry, bool) {
	if st.useSlice {
		e := st.slice[mask]
		return e, e.node != nil
	}
	e, ok := st.m[mask]
	return e, ok
}

//raqo:noalloc
func (st *dpState) put(mask uint32, e entry) {
	if st.useSlice {
		st.slice[mask] = e
		return
	}
	st.m[mask] = e
}

// bestFor prices every (subset, join-algo) candidate for one mask, reading
// only entries of strictly smaller subsets from the table. Candidates are
// built in the state's scratch node and only the winning recipe is
// recorded, so no plan nodes are allocated. Ties keep the earlier
// candidate (strict improvement only).
func (p *Planner) bestFor(st *dpState, mask uint32, q *plan.Query, considered *int) candidate {
	sc := &st.scratch
	var best candidate
	for sub := mask; sub != 0; sub &= sub - 1 {
		i := bits.TrailingZeros32(sub)
		rest := mask &^ (1 << uint(i))
		if st.adj[i]&uint64(rest) == 0 {
			continue // cross product: relation i not joinable with rest
		}
		prev, ok := st.get(rest)
		if !ok {
			continue // rest has no plan: disconnected, or no feasible one
		}
		// The candidate's statistics depend on its inputs only: derived
		// once here, shared by every join algorithm below.
		if _, err := sc.Join(q.Schema, plan.Algos[0], prev.node, st.leaves[i]); err != nil {
			continue
		}
		for _, algo := range plan.Algos {
			j := sc.Rejoin(algo)
			oc, err := p.Coster.CostOperator(j)
			if err != nil {
				continue // e.g. no feasible resources for this operator
			}
			*considered++
			total := prev.cost.Add(oc)
			if !best.ok || total.Seconds < best.cost.Seconds {
				best = candidate{rest: rest, leaf: i, algo: algo, res: j.Res, cost: total, ok: true}
			}
		}
	}
	return best
}

// materialize rebuilds one winning candidate in the arena and records it
// in the table.
func (p *Planner) materialize(st *dpState, mask uint32, c candidate, q *plan.Query) error {
	prev, ok := st.get(c.rest)
	if !ok {
		return fmt.Errorf("selinger: internal: winner for %b references missing subset %b", mask, c.rest)
	}
	j, err := st.arena.Join(q.Schema, c.algo, prev.node, st.leaves[c.leaf])
	if err != nil {
		return fmt.Errorf("selinger: internal: rebuilding winner for %b: %w", mask, err)
	}
	j.Res = c.res
	st.put(mask, entry{node: j, cost: c.cost})
	return nil
}

// nextLevel replaces st.level, the masks one DP level materialized, with
// the candidate masks of the level above in ascending order: each
// materialized mask extended by one leaf it is joinable with. Those are
// exactly the masks bestFor can find a candidate for — every other mask of
// that size has no split into a planned subset and a leaf joinable with it
// — so the DP visits the connected subsets only, in the order a sweep of
// all same-size masks would reach them. The extensions are deduplicated
// and ordered through the st.next bitmap, which the drain leaves zero.
func (st *dpState) nextLevel() []uint32 {
	lo, hi := len(st.next), -1
	for _, m := range st.level {
		var nbr uint64
		for x := m; x != 0; x &= x - 1 {
			nbr |= st.adj[bits.TrailingZeros32(x)]
		}
		for x := uint32(nbr) &^ m; x != 0; x &= x - 1 {
			ext := m | x&-x
			w := int(ext / 64)
			st.next[w] |= 1 << (ext % 64)
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	level := st.level[:0]
	for w := lo; w <= hi; w++ {
		for x := st.next[w]; x != 0; x &= x - 1 {
			level = append(level, uint32(w*64+bits.TrailingZeros64(x)))
		}
		st.next[w] = 0
	}
	st.level = level
	return level
}

// Plan runs the DP and returns the cheapest (by time) left-deep plan.
func (p *Planner) Plan(q *plan.Query) (*optimizer.Result, error) {
	if p.Coster == nil {
		return nil, fmt.Errorf("selinger: nil coster")
	}
	n := len(q.Rels)
	if n > MaxRelations {
		return nil, fmt.Errorf("selinger: %d relations exceeds the DP limit of %d; use the randomized planner", n, MaxRelations)
	}

	st := statePool.Get().(*dpState)
	defer func() {
		st.release()
		statePool.Put(st)
	}()
	st.prepare(n)
	for _, r := range q.Rels {
		leaf, err := st.arena.Scan(q.Schema, r)
		if err != nil {
			return nil, err
		}
		st.leaves = append(st.leaves, leaf)
	}
	st.adj = optimizer.AppendJoinGraph(st.adj[:0], st.leaves)
	for i := 0; i < n; i++ {
		st.put(1<<uint(i), entry{node: st.leaves[i]})
		st.level = append(st.level, 1<<uint(i))
	}
	considered := 0

	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	for size := 2; size <= n; size++ {
		masks := st.nextLevel()
		planned := masks[:0]
		for _, mask := range masks {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("selinger: planning cancelled: %w", err)
			}
			if c := p.bestFor(st, mask, q, &considered); c.ok {
				if err := p.materialize(st, mask, c, q); err != nil {
					return nil, err
				}
				planned = append(planned, mask)
			}
		}
		st.level = planned
	}
	e, ok := st.get(uint32(1)<<uint(n) - 1)
	if !ok {
		return nil, fmt.Errorf("selinger: no feasible plan for %v", q.Rels)
	}
	// The winning tree lives in the pooled arena; deep-copy it out before
	// the deferred release recycles the storage.
	return &optimizer.Result{Plan: e.node.Clone(), Cost: e.cost, PlansConsidered: considered}, nil
}

// Exhaustive enumerates every left-deep join order and operator combination
// and returns the global optimum. It is exponential-factorial and intended
// only for validating the DP in tests and ablations (n <= ~7).
func Exhaustive(coster optimizer.OperatorCoster, q *plan.Query) (*optimizer.Result, error) {
	n := len(q.Rels)
	if n > 7 {
		return nil, fmt.Errorf("selinger: exhaustive search limited to 7 relations, got %d", n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	bestCost := math.Inf(1)
	var best *plan.Node
	var bestOC optimizer.OpCost
	considered := 0

	algosFor := func(k int) [][]plan.JoinAlgo {
		// all algo assignments for k joins
		out := [][]plan.JoinAlgo{{}}
		for i := 0; i < k; i++ {
			var next [][]plan.JoinAlgo
			for _, pfx := range out {
				for _, a := range plan.Algos {
					row := append(append([]plan.JoinAlgo(nil), pfx...), a)
					next = append(next, row)
				}
			}
			out = next
		}
		return out
	}
	assignments := algosFor(n - 1)

	var permute func(k int) error
	permute = func(k int) error {
		if k == n {
			for _, algos := range assignments {
				cur, err := plan.NewScan(q.Schema, q.Rels[perm[0]])
				if err != nil {
					return err
				}
				valid := true
				for i := 1; i < n && valid; i++ {
					leaf, err := plan.NewScan(q.Schema, q.Rels[perm[i]])
					if err != nil {
						return err
					}
					j, err := plan.NewJoin(q.Schema, algos[i-1], cur, leaf)
					if err != nil {
						valid = false
						break
					}
					cur = j
				}
				if !valid {
					continue
				}
				oc, err := optimizer.PlanCost(coster, cur)
				if err != nil {
					continue
				}
				considered++
				if oc.Seconds < bestCost {
					bestCost = oc.Seconds
					best = cur
					bestOC = oc
				}
			}
			return nil
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if err := permute(k + 1); err != nil {
				return err
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if err := permute(0); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("selinger: exhaustive found no feasible plan")
	}
	return &optimizer.Result{Plan: best, Cost: bestOC, PlansConsidered: considered}, nil
}
