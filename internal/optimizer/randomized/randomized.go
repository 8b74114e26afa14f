// Package randomized implements a fast randomized multi-objective query
// planner in the style of Trummer and Koch (SIGMOD 2016): randomized local
// search over bushy join trees using the associativity and exchange
// mutations of Steinbrunn et al., maintaining an archive of plans that are
// Pareto-optimal within a target approximation precision over (execution
// time, monetary cost).
//
// The search restarts independently Options.Restarts times, one after the
// other; restarts are seeded deterministically from Planner.Seed, and
// their archives merge in restart order under the same (1+ε)-dominance
// rule, so a multi-restart run is reproducible.
//
// Each restart builds its trees in the node arena of a pooled search state
// and re-seeds the state's generator, a randsrc.Source that replays
// rand.NewSource's stream without refilling its register, so a search
// allocates almost nothing and a restart starts in O(1). The plans Plan
// and PlanPareto return are copies, cloned out of the arenas before the
// states go back to the pool: callers own them, and no later search can
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
	// Epsilon is the target approximation precision of the Pareto archive:
	// a candidate is discarded if an archived plan (1+Epsilon)-dominates it.
	Epsilon float64
	// MutationsPerPlan bounds mutation retries per archived plan per round.
	MutationsPerPlan int
	// Restarts is the number of independent searches to run; their archives
	// are merged. Defaults to 1 (the paper's single-search configuration).
	Restarts int
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 10
	}
	if o.Seeds <= 0 {
		o.Seeds = 10
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.1
	}
	if o.MutationsPerPlan <= 0 {
		o.MutationsPerPlan = 4
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	return o
}

// Planner is the fast randomized multi-objective planner.
type Planner struct {
	Coster optimizer.OperatorCoster
	Opts   Options

	// Seed seeds the search: a single-restart search draws from
	// rand.NewSource(Seed)'s stream, and restart i of several from a seed
	// mixed from Seed and i. The zero value is a valid seed.
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

// addEntry inserts e into the (1+eps)-Pareto archive: dropped if an
// archived entry approximately dominates it, and evicting archived entries
// it strictly dominates. Returns the updated archive.
func addEntry(archive []ParetoEntry, e ParetoEntry, eps float64) []ParetoEntry {
	cv := vec(e.Cost)
	for _, a := range archive {
		if vec(a.Cost).DominatesApprox(cv, eps) {
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

// restartSeed mixes the base seed with the restart index (splitmix64-style)
// so restarts explore independent trajectories but stay reproducible.
func restartSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// searchState is the reusable working memory of one restart: the tree
// scratch whose arena holds every plan the search builds, a generator to
// re-seed, and the archive buffers. States are pooled, so a search
// allocates its trees, its generator and its slices only on a pool miss.
type searchState struct {
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
	rng := st.rng
	archive := st.archive[:0]
	considered := 0
	insert := func(n *plan.Node) {
		oc, err := optimizer.PlanCost(p.Coster, n)
		if err != nil {
			return // infeasible candidate (e.g. OOM everywhere): skip
		}
		considered++
		archive = addEntry(archive, ParetoEntry{Plan: n, Cost: oc}, opts.Epsilon)
	}

	for i := 0; i < opts.Seeds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, considered, fmt.Errorf("randomized: search cancelled: %w", err)
		}
		t, err := st.ts.RandomTree(rng, q)
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

// search runs the restarts, each in a pooled state, and hands their merged
// archive and the number of candidates priced to keep. The archive's plans
// live in the states' arenas, which are recycled when search returns: keep
// must Clone out whatever it returns.
func (p *Planner) search(q *plan.Query, keep func(archive []ParetoEntry, considered int) error) (int, error) {
	if p.Coster == nil {
		return 0, fmt.Errorf("randomized: nil coster")
	}
	opts := p.Opts.withDefaults()
	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	if opts.Restarts == 1 {
		st := getState()
		defer putState(st)
		st.rng.Seed(p.Seed)
		archive, considered, err := p.searchOnce(ctx, st, q, opts)
		if err != nil {
			return considered, err
		}
		return considered, keep(archive, considered)
	}

	// Each restart keeps its state until keep has cloned what it returns:
	// the merged plans live in the states' arenas. Archives fold together
	// in restart order under the same ε-dominance rule, without re-costing;
	// the first failing restart ends the search.
	states := make([]*searchState, 0, opts.Restarts)
	defer func() {
		for _, st := range states {
			putState(st)
		}
	}()
	var merged []ParetoEntry
	considered := 0
	for i := 0; i < opts.Restarts; i++ {
		st := getState()
		states = append(states, st)
		st.rng.Seed(restartSeed(p.Seed, i))
		archive, n, err := p.searchOnce(ctx, st, q, opts)
		if err != nil {
			return 0, fmt.Errorf("restart %d: %w", i, err)
		}
		considered += n
		for _, e := range archive {
			merged = addEntry(merged, e, opts.Epsilon)
		}
	}
	return considered, keep(merged, considered)
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
