// Package randomized implements a fast randomized multi-objective query
// planner in the style of Trummer and Koch (SIGMOD 2016): randomized local
// search over bushy join trees using the associativity and exchange
// mutations of Steinbrunn et al., maintaining an archive of plans that are
// Pareto-optimal within a target approximation precision over (execution
// time, monetary cost).
//
// A search is seeded deterministically from Planner.Seed, so a run is
// reproducible. It builds its trees in the node arena of a pooled search
// state and re-seeds the state's generator, a randsrc.Source that replays
// rand.NewSource's stream without refilling its register, so a search
// allocates almost nothing and starts in O(1). The plans Plan and
// PlanPareto return are copies, cloned out of the arena before the state
// goes back to the pool: callers own them, and no later search can
// overwrite them.
package randomized

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"raqo/internal/cost"
	"raqo/internal/optimizer"
	"raqo/internal/plan"
	"raqo/internal/randsrc"
)

// Options configures the planner. Zero values select the paper's defaults.
type Options struct {
	// Iterations is the number of improvement rounds; the paper "ran all
	// query planning for a default of 10 iterations".
	Iterations int
	// Seeds is the number of random initial plans.
	Seeds int
	// MutationsPerPlan bounds mutation retries per archived plan per round.
	MutationsPerPlan int
}

// epsilon is the target approximation precision of the Pareto archive: a
// candidate is discarded if an archived plan (1+epsilon)-dominates it.
const epsilon = 0.1

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 10
	}
	if o.Seeds <= 0 {
		o.Seeds = 10
	}
	if o.MutationsPerPlan <= 0 {
		o.MutationsPerPlan = 4
	}
	return o
}

// Planner is the fast randomized multi-objective planner.
type Planner struct {
	Coster optimizer.OperatorCoster
	Opts   Options

	// Seed seeds the search, which draws from rand.NewSource(Seed)'s
	// stream. The zero value is a valid seed.
	Seed int64

	// Ctx, when non-nil, is observed between search steps (per seed plan
	// and per mutation batch): once it is cancelled the search stops and
	// returns ctx.Err() promptly. nil searches to completion.
	Ctx context.Context
}

// ParetoEntry is one archived plan with its cost vector.
type ParetoEntry struct {
	Plan *plan.Node
	Cost optimizer.OpCost
}

func vec(c optimizer.OpCost) cost.Vector { return cost.Vector{Time: c.Seconds, Money: c.Money} }

// addEntry inserts e into the (1+epsilon)-Pareto archive: dropped if an
// archived entry approximately dominates it, and evicting archived entries
// it strictly dominates. Returns the updated archive.
func addEntry(archive []ParetoEntry, e ParetoEntry) []ParetoEntry {
	cv := vec(e.Cost)
	for _, a := range archive {
		if vec(a.Cost).DominatesApprox(cv, epsilon) {
			return archive
		}
	}
	kept := archive[:0]
	for _, a := range archive {
		if !cv.Dominates(vec(a.Cost)) {
			kept = append(kept, a)
		}
	}
	return append(kept, e)
}

// searchState is the reusable working memory of one search: the scratch
// form a query's first search reads its scans and join graph from (later
// ones read the query's own, plan.Query.Form), the tree scratch whose
// arena holds every join the search builds, a generator to re-seed, and
// the archive buffers. States are pooled, so a search allocates its trees,
// its generator and its slices only on a pool miss.
type searchState struct {
	form     plan.Form
	ts       optimizer.TreeScratch
	rng      *rand.Rand
	archive  []ParetoEntry
	snapshot []ParetoEntry
}

var statePool = sync.Pool{New: func() any { return &searchState{rng: rand.New(&randsrc.Source{})} }}

// release recycles the arena and drops every plan pointer.
func (st *searchState) release() {
	st.ts.Reset()
	clear(st.archive[:cap(st.archive)])
	clear(st.snapshot[:cap(st.snapshot)])
	st.archive, st.snapshot = st.archive[:0], st.snapshot[:0]
}

func getState() *searchState { return statePool.Get().(*searchState) }

func putState(st *searchState) {
	st.release()
	statePool.Put(st)
}

// searchOnce runs one local search, drawing from st's seeded generator, in
// st and returns its archive and the number of candidates priced. ctx is
// observed per seed plan and per archived-plan mutation batch. Every tree
// lives in st's arena, and the archive and the per-iteration snapshot
// reuse st's buffers, so the inner loop allocates nothing once the state
// has grown.
func (p *Planner) searchOnce(ctx context.Context, st *searchState, q *plan.Query, opts Options) ([]ParetoEntry, int, error) {
	f, err := q.Form(&st.form)
	if err != nil {
		return nil, 0, err
	}
	rng := st.rng
	archive := st.archive[:0]
	considered := 0
	insert := func(n *plan.Node) {
		oc, err := optimizer.PlanCost(p.Coster, n)
		if err != nil {
			return // infeasible candidate (e.g. OOM everywhere): skip
		}
		considered++
		archive = addEntry(archive, ParetoEntry{Plan: n, Cost: oc})
	}

	for i := 0; i < opts.Seeds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, considered, fmt.Errorf("randomized: search cancelled: %w", err)
		}
		t, err := st.ts.RandomTree(rng, f)
		if err != nil {
			return nil, considered, err
		}
		insert(t)
	}
	if len(archive) == 0 {
		return nil, considered, fmt.Errorf("randomized: no feasible seed plan for %v", q.Rels)
	}

	for it := 0; it < opts.Iterations; it++ {
		st.snapshot = append(st.snapshot[:0], archive...)
		for _, e := range st.snapshot {
			if err := ctx.Err(); err != nil {
				return nil, considered, fmt.Errorf("randomized: search cancelled: %w", err)
			}
			for m := 0; m < opts.MutationsPerPlan; m++ {
				mut, ok := st.ts.Mutate(rng, q.Schema, e.Plan)
				if !ok {
					continue
				}
				insert(mut)
			}
		}
	}
	st.archive = archive
	return archive, considered, nil
}

// search runs one search in a pooled state and hands its archive and the
// number of candidates priced to keep. The archive's plans live in the
// state's arena, which is recycled when search returns: keep must Clone
// out whatever it returns.
func (p *Planner) search(q *plan.Query, keep func(archive []ParetoEntry, considered int) error) (int, error) {
	if p.Coster == nil {
		return 0, fmt.Errorf("randomized: nil coster")
	}
	opts := p.Opts.withDefaults()
	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	st := getState()
	defer putState(st)
	st.rng.Seed(p.Seed)
	archive, considered, err := p.searchOnce(ctx, st, q, opts)
	if err != nil {
		return considered, err
	}
	return considered, keep(archive, considered)
}

// PlanPareto runs the randomized search and returns the approximate Pareto
// archive plus the number of candidate plans priced. Each entry's plan is
// a copy of its own, outside the search's arenas.
func (p *Planner) PlanPareto(q *plan.Query) ([]ParetoEntry, int, error) {
	var out []ParetoEntry
	considered, err := p.search(q, func(archive []ParetoEntry, _ int) error {
		out = make([]ParetoEntry, len(archive))
		for i, e := range archive {
			out[i] = ParetoEntry{Plan: e.Plan.Clone(), Cost: e.Cost}
		}
		return nil
	})
	if err != nil {
		return nil, considered, err
	}
	return out, considered, nil
}

// Plan returns the archived plan with the lowest execution time — the
// single-objective view used when comparing against Selinger — as a copy
// outside the search's arenas.
func (p *Planner) Plan(q *plan.Query) (*optimizer.Result, error) {
	var res *optimizer.Result
	_, err := p.search(q, func(archive []ParetoEntry, considered int) error {
		best := archive[0]
		for _, e := range archive[1:] {
			if e.Cost.Seconds < best.Cost.Seconds {
				best = e
			}
		}
		// Re-cost the winner so its operators carry their final resource
		// annotations (mutated subtrees are rebuilt without Res).
		if _, err := optimizer.PlanCost(p.Coster, best.Plan); err != nil {
			return err
		}
		res = &optimizer.Result{Plan: best.Plan.Clone(), Cost: best.Cost, PlansConsidered: considered}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
