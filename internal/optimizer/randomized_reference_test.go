package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// heapPlanner is the randomized planner as it was before its searches ran
// in pooled arenas, kept as the oracle of TestRandomizedArenaMatchesHeap:
// one heap-building tree scratch and one freshly seeded generator per
// restart, plans returned as built. It is the former code less the
// cancellation checks; addEntry, restartSeed and withDefaults are the
// unexported helpers it shares with the planner, copied.
type heapPlanner struct {
	Coster  optimizer.OperatorCoster
	Opts    randomized.Options
	RNG     *rand.Rand
	Seed    int64
	Workers int
}

func withDefaults(o randomized.Options) randomized.Options {
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

func vec(c optimizer.OpCost) cost.Vector { return cost.Vector{Time: c.Seconds, Money: c.Money} }

func addEntry(archive []randomized.ParetoEntry, e randomized.ParetoEntry, eps float64) []randomized.ParetoEntry {
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

func restartSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func (p *heapPlanner) searchOnce(rng *rand.Rand, q *plan.Query, opts randomized.Options) ([]randomized.ParetoEntry, int, error) {
	var archive []randomized.ParetoEntry
	var ts optimizer.HeapScratch
	var snapshot []randomized.ParetoEntry
	considered := 0
	insert := func(n *plan.Node) {
		oc, err := optimizer.PlanCost(p.Coster, n)
		if err != nil {
			return
		}
		considered++
		archive = addEntry(archive, randomized.ParetoEntry{Plan: n, Cost: oc}, opts.Epsilon)
	}
	for i := 0; i < opts.Seeds; i++ {
		t, err := ts.RandomTree(rng, q)
		if err != nil {
			return nil, considered, err
		}
		insert(t)
	}
	if len(archive) == 0 {
		return nil, considered, fmt.Errorf("randomized: no feasible seed plan for %v", q.Rels)
	}
	for it := 0; it < opts.Iterations; it++ {
		snapshot = append(snapshot[:0], archive...)
		for _, e := range snapshot {
			for m := 0; m < opts.MutationsPerPlan; m++ {
				mut, ok := ts.Mutate(rng, q.Schema, e.Plan)
				if !ok {
					continue
				}
				insert(mut)
			}
		}
	}
	return archive, considered, nil
}

func (p *heapPlanner) PlanPareto(q *plan.Query) ([]randomized.ParetoEntry, int, error) {
	opts := withDefaults(p.Opts)
	if opts.Restarts == 1 {
		rng := p.RNG
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed))
		}
		return p.searchOnce(rng, q, opts)
	}
	type restartResult struct {
		archive    []randomized.ParetoEntry
		considered int
		err        error
	}
	results := make([]restartResult, opts.Restarts)
	workers := p.Workers
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, opts.Restarts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Restarts {
					return
				}
				rng := rand.New(rand.NewSource(restartSeed(p.Seed, i)))
				a, n, err := p.searchOnce(rng, q, opts)
				results[i] = restartResult{archive: a, considered: n, err: err}
			}
		}()
	}
	wg.Wait()
	var merged []randomized.ParetoEntry
	considered := 0
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, 0, fmt.Errorf("restart %d: %w", i, err)
		}
		considered += results[i].considered
		for _, e := range results[i].archive {
			merged = addEntry(merged, e, opts.Epsilon)
		}
	}
	return merged, considered, nil
}

func (p *heapPlanner) Plan(q *plan.Query) (*optimizer.Result, error) {
	archive, considered, err := p.PlanPareto(q)
	if err != nil {
		return nil, err
	}
	best := archive[0]
	for _, e := range archive[1:] {
		if e.Cost.Seconds < best.Cost.Seconds {
			best = e
		}
	}
	if _, err := optimizer.PlanCost(p.Coster, best.Plan); err != nil {
		return nil, err
	}
	return &optimizer.Result{Plan: best.Plan, Cost: best.Cost, PlansConsidered: considered}, nil
}

// searchRun is what one planning call produced, with the coster's and the
// resource-plan cache's counters after it.
type searchRun struct {
	archive    []randomized.ParetoEntry
	best       *optimizer.Result
	considered int
	iters      int64
	stats      resource.Stats
	err        error
}

// sameCost reports whether two costs are equal bit for bit.
func sameCost(a, b optimizer.OpCost) bool {
	return math.Float64bits(a.Seconds) == math.Float64bits(b.Seconds) &&
		math.Float64bits(float64(a.Money)) == math.Float64bits(float64(b.Money))
}

// sameRun fails unless two runs returned the same error or the same plans
// (resources included) at the same cost bits, after the same number of
// candidates, resource iterations and cache lookups.
func sameRun(t *testing.T, what string, got, want searchRun) {
	t.Helper()
	if !sameError(got.err, want.err) {
		t.Fatalf("%s: error %v, heap reference %v", what, got.err, want.err)
	}
	if len(got.archive) != len(want.archive) {
		t.Fatalf("%s: archive of %d plans, heap reference %d", what, len(got.archive), len(want.archive))
	}
	for i, g := range got.archive {
		w := want.archive[i]
		if !g.Plan.Equal(w.Plan) || !sameTree(g.Plan, w.Plan) || !sameCost(g.Cost, w.Cost) {
			t.Fatalf("%s: archive entry %d\n%s%+v\nheap reference\n%s%+v", what, i, g.Plan, g.Cost, w.Plan, w.Cost)
		}
	}
	if (got.best == nil) != (want.best == nil) {
		t.Fatalf("%s: result %v, heap reference %v", what, got.best, want.best)
	}
	if got.best != nil {
		g, w := got.best, want.best
		if !g.Plan.Equal(w.Plan) || !sameTree(g.Plan, w.Plan) || !sameCost(g.Cost, w.Cost) {
			t.Fatalf("%s: plan\n%s%+v\nheap reference\n%s%+v", what, g.Plan, g.Cost, w.Plan, w.Cost)
		}
	}
	if got.considered != want.considered || got.iters != want.iters || got.stats != want.stats {
		t.Fatalf("%s: considered %d, resource iterations %d, cache %+v; heap reference %d, %d, %+v",
			what, got.considered, got.iters, got.stats, want.considered, want.iters, want.stats)
	}
}

// TestRandomizedArenaMatchesHeap holds the pooled-arena randomized planner
// to the heap-building one it replaced. Over TPC-H and the 30- and
// 100-table random schemas, queries of 2 to 60 relations, one restart and
// three, PlanPareto's archive and Plan's result must be the same plans,
// resources included, at the same cost bits, after the same number of
// priced candidates, resource iterations and cache lookups. The "rng"
// config hands the reference rand.New(rand.NewSource(seed)) and the
// planner only the seed, so the planner's seeded stream is held to the
// caller's-generator one. Each query is planned twice after the
// reference, so the second run takes the state the first left in the
// pool — same query, same *Query pointer, recycled arena. The coster sits
// behind a nearest-neighbour cache, whose answers depend on the order it
// is asked in.
func TestRandomizedArenaMatchesHeap(t *testing.T) {
	schemas := enumSchemas(t)
	rng := rand.New(rand.NewSource(2016))
	configs := []struct {
		name     string
		restarts int
		withRNG  bool
	}{
		{"rng", 1, true},
		{"seed", 1, false},
		{"restarts3", 3, false},
	}
	for _, name := range []string{"tpch", "random30", "random100"} {
		s := schemas[name]
		for k := 2; k <= min(60, s.NumTables()); k++ {
			q, err := workload.RandomQuery(rng, s, k)
			if err != nil {
				t.Fatal(err)
			}
			opts := randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2}
			if k%8 == 0 {
				opts = randomized.Options{} // the paper's defaults
			}
			seed := rng.Int63()
			for _, c := range configs {
				opts.Restarts = c.restarts
				// run plans q once behind a fresh coster and cache, through
				// the heap reference or the planner.
				run := func(heap, pareto bool) searchRun {
					cache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.01}
					coster := &core.Coster{Models: cost.PaperModels(), Pricing: cost.DefaultPricing(), Resources: cache, Cond: cluster.Default()}
					var gen *rand.Rand
					if c.withRNG {
						gen = rand.New(rand.NewSource(seed))
					}
					var r searchRun
					switch {
					case heap && pareto:
						p := &heapPlanner{Coster: coster, Opts: opts, RNG: gen, Seed: seed}
						r.archive, r.considered, r.err = p.PlanPareto(q)
					case heap:
						p := &heapPlanner{Coster: coster, Opts: opts, RNG: gen, Seed: seed}
						r.best, r.err = p.Plan(q)
					case pareto:
						p := &randomized.Planner{Coster: coster, Opts: opts, Seed: seed}
						r.archive, r.considered, r.err = p.PlanPareto(q)
					default:
						p := &randomized.Planner{Coster: coster, Opts: opts, Seed: seed}
						r.best, r.err = p.Plan(q)
					}
					if r.best != nil {
						r.considered = r.best.PlansConsidered
					}
					r.iters = coster.ResourceIters()
					r.stats = cache.Stats()
					return r
				}
				for _, pareto := range []bool{true, false} {
					want := run(true, pareto)
					for pass := range 2 {
						sameRun(t, fmt.Sprintf("%s %d-way %s pareto=%v pass %d", name, k, c.name, pareto, pass), run(false, pareto), want)
					}
				}
			}
		}
	}
}
