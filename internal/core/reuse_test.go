package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/units"
	"raqo/internal/workload"
)

// refCache forwards a resource-plan cache's Plan, PlanCounted and
// Evaluations and nothing else. A Coster planning through it cannot see the
// cache's Version, so it asks the cache every question: the path without
// per-call answer reuse, and the reference the reuse is held to.
type refCache struct{ c *resource.Cache }

func (r refCache) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	return r.c.Plan(m, ssGB, cond)
}

func (r refCache) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	return r.c.PlanCounted(m, ssGB, cond)
}

func (r refCache) Evaluations() int64 { return r.c.Evaluations() }

// fractionalGrid is a resource space whose container sizes are not whole
// numbers. A hill climb's accumulated sizes there need not be the bits the
// cache's grid snap (Conditions.Clamp) computes, so the configuration a
// miss returns and the one the next exact hit on the same key returns can
// differ.
var fractionalGrid = cluster.Conditions{
	MinContainers: 2, MaxContainers: 60, ContainerStep: 2,
	MinContainerGB: 0.5, MaxContainerGB: 6, GBStep: 0.1,
}

// sameResources reports whether two trees carry the same resource
// annotation, bit for bit, on every join.
func sameResources(a, b *plan.Node) bool {
	if a == nil || b == nil || a.IsScan() || b.IsScan() {
		return a.Equal(b)
	}
	return a.Res.Containers == b.Res.Containers &&
		math.Float64bits(a.Res.ContainerGB) == math.Float64bits(b.Res.ContainerGB) &&
		sameResources(a.Left, b.Left) && sameResources(a.Right, b.Right)
}

// reuseOutcome is everything one planning call reports, bits for floats.
type reuseOutcome struct {
	plan        *plan.Node
	time, money uint64
	considered  int
	iters       int64
	pruned      int64
	err         string
	stats       resource.Stats
}

func decisionOutcome(d *Decision, err error, stats resource.Stats) reuseOutcome {
	out := reuseOutcome{stats: stats}
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.plan = d.Plan
	out.time = math.Float64bits(d.Time)
	out.money = math.Float64bits(float64(d.Money))
	out.considered = d.PlansConsidered
	out.iters = d.ResourceIterations
	return out
}

func sameOutcome(t *testing.T, what string, got, want reuseOutcome) {
	t.Helper()
	if !got.plan.Equal(want.plan) || !sameResources(got.plan, want.plan) {
		t.Fatalf("%s: plan\n got %v\nwant %v", what, got.plan.SignatureWithResources(), want.plan.SignatureWithResources())
	}
	g, w := got, want
	g.plan, w.plan = nil, nil
	if g != w {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, g, w)
	}
}

// reuseSide is one side of the oracle: an optimizer over its own cache,
// which it plans through directly (reuse) or behind refCache (reference).
type reuseSide struct {
	o     *Optimizer
	cache *resource.Cache
}

func newReuseSide(t *testing.T, ref bool, cond cluster.Conditions, opts Options, mode resource.LookupMode, thresholdGB float64) reuseSide {
	t.Helper()
	cache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: mode, ThresholdGB: thresholdGB}
	opts.Resource = cache
	if ref {
		opts.Resource = refCache{cache}
	}
	o, err := New(cond, opts)
	if err != nil {
		t.Fatal(err)
	}
	return reuseSide{o, cache}
}

// optimize is Optimize, keeping the call's Coster to read its prune count
// and how many answers its table served.
func (s reuseSide) optimize(q *plan.Query) (reuseOutcome, int64) {
	c := s.o.coster(s.o.opts.Resource, plan.Resources{}, s.o.cond)
	d, err := s.o.run(context.Background(), q, c)
	out := decisionOutcome(d, err, s.cache.Stats())
	out.pruned = c.Pruned()
	return out, c.reused
}

// reuseQueries is one schema's query sequence for each planner: TPC-H's
// four evaluation queries, or a seeded random set over a 30- or 100-table
// schema.
func reuseQueries(t *testing.T, schema string) map[PlannerKind][]*plan.Query {
	t.Helper()
	out := map[PlannerKind][]*plan.Query{}
	if schema == "tpch" {
		for _, name := range []string{workload.Q12, workload.Q3, workload.Q2, workload.All} {
			out[Selinger] = append(out[Selinger], q(t, name))
		}
		out[FastRandomized] = out[Selinger]
		return out
	}
	tables := map[string]int{"random30": 30, "random100": 100}[schema]
	rng := rand.New(rand.NewSource(int64(tables)))
	s, err := catalog.Random(rng, tables, catalog.DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[PlannerKind][]int{Selinger: {3, 5, 8, 10}, FastRandomized: {6, 12, 20, 30}}
	for _, kind := range []PlannerKind{Selinger, FastRandomized} {
		for _, k := range sizes[kind] {
			query, err := workload.RandomQuery(rng, s, k)
			if err != nil {
				t.Fatal(err)
			}
			out[kind] = append(out[kind], query)
		}
	}
	return out
}

// TestCosterReuseMatchesCache holds per-call answer reuse to the cache it
// stands in for. Each configuration plans one query sequence twice (the
// second pass on a cache the first filled, as a plan_scale pass does) on two
// optimizers with identical caches, one planning through the cache and one
// through refCache, and every call must agree on the plan and its resources,
// time and money bits, the search counters, the prune count and the cache's
// full Stats. Resource-only planning and price-bounded planning go through
// the same per-call table and are compared the same way.
func TestCosterReuseMatchesCache(t *testing.T) {
	models, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		t.Fatal(err)
	}
	hive := execsim.Hive()
	lookups := []struct {
		mode        resource.LookupMode
		thresholdGB float64
	}{
		{resource.Exact, 0},
		{resource.NearestNeighbor, 0}, {resource.NearestNeighbor, 0.01}, {resource.NearestNeighbor, 1},
		{resource.WeightedAverage, 0}, {resource.WeightedAverage, 0.01}, {resource.WeightedAverage, 1},
	}
	conds := []struct {
		name string
		cond cluster.Conditions
	}{{"default", cluster.Default()}, {"fractional", fractionalGrid}}
	reused := int64(0)
	for _, schema := range []string{"tpch", "random30", "random100"} {
		queries := reuseQueries(t, schema)
		for _, kind := range []PlannerKind{Selinger, FastRandomized} {
			for _, lk := range lookups {
				for _, engine := range []*execsim.Params{nil, &hive} {
					for _, cd := range conds {
						name := fmt.Sprintf("%s/%s/%s@%g/engine=%v/%s", schema, kind, lk.mode, lk.thresholdGB, engine != nil, cd.name)
						opts := Options{
							Planner: kind, Models: models, Engine: engine, Seed: 7,
							Randomized: randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2},
						}
						reuse := newReuseSide(t, false, cd.cond, opts, lk.mode, lk.thresholdGB)
						ref := newReuseSide(t, true, cd.cond, opts, lk.mode, lk.thresholdGB)
						for pass := range 2 {
							for i, query := range queries[kind] {
								what := fmt.Sprintf("%s pass %d query %d", name, pass, i)
								got, n := reuse.optimize(query)
								want, _ := ref.optimize(query)
								sameOutcome(t, what, got, want)
								reused += n
								if pass == 0 || want.err != "" {
									continue
								}
								gd, gerr := reuse.o.PlanResources(got.plan.Clone())
								wd, werr := ref.o.PlanResources(want.plan.Clone())
								sameOutcome(t, what+" PlanResources", decisionOutcome(gd, gerr, reuse.cache.Stats()), decisionOutcome(wd, werr, ref.cache.Stats()))
								if kind == FastRandomized {
									gd, gerr := reuse.o.OptimizeForPrice(query, units.Dollars(1e9))
									wd, werr := ref.o.OptimizeForPrice(query, units.Dollars(1e9))
									sameOutcome(t, what+" OptimizeForPrice", decisionOutcome(gd, gerr, reuse.cache.Stats()), decisionOutcome(wd, werr, ref.cache.Stats()))
								}
							}
						}
					}
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no answer was reused: the comparison covers nothing")
	}
}

// reuseSizes are the smaller-input sizes, in GB, of the scripted joins: a
// ladder with gaps on both sides of every threshold the tests use, so
// nearest-neighbour and weighted answers move as entries arrive.
var reuseSizes = []float64{0.05, 0.3, 1, 1.004, 1.2, 2, 2.6, 3.1, 5, 8, 12, 20}

// reuseContext is one Coster context a script plans under: its own cache
// on each side, its conditions and engine.
type reuseContext struct {
	cond   cluster.Conditions
	engine *execsim.Params
}

// reuseOp prices the join of reuseSizes[rel] with a larger table by algo,
// or, with reset, resets the call's cache.
type reuseOp struct {
	reset bool
	algo  plan.JoinAlgo
	rel   int
}

// reuseCall is one planning call of a script: a new Coster under
// contexts[ctx], asked ops in order.
type reuseCall struct {
	ctx int
	ops []reuseOp
}

// reuseAnswer is one scripted costing as the reference side saw it.
type reuseAnswer struct {
	res plan.Resources
	oc  optimizer.OpCost
	err string
}

// reuseJoins builds one scripted join per (algorithm, size) for each side.
func reuseJoins(t testing.TB) (ours, theirs [2][]*plan.Node) {
	t.Helper()
	s := catalog.NewSchema()
	const rowBytes = 100
	big := catalog.Table{Name: "big", Rows: 1 << 32, RowBytes: rowBytes}
	if err := s.AddTable(big); err != nil {
		t.Fatal(err)
	}
	for i, gb := range reuseSizes {
		name := fmt.Sprintf("t%02d", i)
		if err := s.AddTable(catalog.Table{Name: name, Rows: int64(gb * float64(units.GB) / rowBytes), RowBytes: rowBytes}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddJoin(name, "big", 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(name string) *plan.Node {
		n, err := plan.NewScan(s, name)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, algo := range plan.Algos {
		for i := range reuseSizes {
			for _, side := range []*[2][]*plan.Node{&ours, &theirs} {
				j, err := plan.NewJoin(s, algo, scan(fmt.Sprintf("t%02d", i)), scan("big"))
				if err != nil {
					t.Fatal(err)
				}
				side[algo] = append(side[algo], j)
			}
		}
	}
	return ours, theirs
}

// runReuseScript runs calls on two sides, each with one cache per context:
// Costers over the caches themselves, armed per call as the Optimizer arms
// them, and Costers over refCache. After every op both sides must agree on
// the answer, its bits, the evaluation and prune counts and the cache's
// Stats; mid-call, the reusing side's hits are behind by exactly the
// answers its table served. It returns the reference side's answers.
func runReuseScript(t testing.TB, models *cost.Models, mode resource.LookupMode, thresholdGB float64, contexts []reuseContext, calls []reuseCall) [][]reuseAnswer {
	t.Helper()
	ours, theirs := reuseJoins(t)
	newCaches := func() []*resource.Cache {
		cs := make([]*resource.Cache, len(contexts))
		for i := range cs {
			cs[i] = &resource.Cache{Inner: &resource.HillClimb{}, Mode: mode, ThresholdGB: thresholdGB}
		}
		return cs
	}
	oursCaches, refCaches := newCaches(), newCaches()
	var answers [][]reuseAnswer
	for ci, call := range calls {
		cx := contexts[call.ctx]
		mk := func(rp resource.Planner) *Coster {
			return &Coster{Models: models, Pricing: cost.DefaultPricing(), Resources: rp, Cond: cx.cond, Engine: cx.engine}
		}
		oc, rc := mk(oursCaches[call.ctx]), mk(refCache{refCaches[call.ctx]})
		oc.beginCall()
		rc.beginCall()
		if oc.answers == nil || rc.answers != nil {
			t.Fatal("the Coster over the cache reuses no answers, or the one over refCache does")
		}
		var got []reuseAnswer
		for oi, op := range call.ops {
			what := fmt.Sprintf("call %d (context %d) op %d %+v", ci, call.ctx, oi, op)
			if op.reset {
				oursCaches[call.ctx].Reset()
				refCaches[call.ctx].Reset()
			} else {
				a, b := ours[op.algo][op.rel], theirs[op.algo][op.rel]
				a.Res, b.Res = plan.Resources{}, plan.Resources{}
				ga, gerr := oc.CostOperator(a)
				wa, werr := rc.CostOperator(b)
				g, w := reuseAnswer{res: a.Res, oc: ga}, reuseAnswer{res: b.Res, oc: wa}
				if gerr != nil {
					g.err = gerr.Error()
				}
				if werr != nil {
					w.err = werr.Error()
				}
				if g.err != w.err || g.res.Containers != w.res.Containers ||
					math.Float64bits(g.res.ContainerGB) != math.Float64bits(w.res.ContainerGB) ||
					math.Float64bits(g.oc.Seconds) != math.Float64bits(w.oc.Seconds) ||
					math.Float64bits(float64(g.oc.Money)) != math.Float64bits(float64(w.oc.Money)) {
					t.Fatalf("%s: answer %+v, reference %+v", what, g, w)
				}
				got = append(got, w)
			}
			if oc.ResourceIters() != rc.ResourceIters() || oc.Pruned() != rc.Pruned() {
				t.Fatalf("%s: iterations/pruned %d/%d, reference %d/%d", what, oc.ResourceIters(), oc.Pruned(), rc.ResourceIters(), rc.Pruned())
			}
			gs, ws := oursCaches[call.ctx].Stats(), refCaches[call.ctx].Stats()
			gs.Hits += oc.reused
			if gs != ws {
				t.Fatalf("%s: stats %+v (with %d reused), reference %+v", what, gs, oc.reused, ws)
			}
		}
		oc.endCall()
		rc.endCall()
		if gs, ws := oursCaches[call.ctx].Stats(), refCaches[call.ctx].Stats(); gs != ws {
			t.Fatalf("after call %d: stats %+v, reference %+v", ci, gs, ws)
		}
		answers = append(answers, got)
	}
	return answers
}

func costOps(algo plan.JoinAlgo, rels ...int) []reuseOp {
	ops := make([]reuseOp, len(rels))
	for i, r := range rels {
		ops[i] = reuseOp{algo: algo, rel: r}
	}
	return ops
}

// TestCosterReuseNeighbourDrift: a question a neighbour answered, asked
// again after a miss inserted a closer key, gets the closer key's
// configuration, though nothing about the question changed.
func TestCosterReuseNeighbourDrift(t *testing.T) {
	const a, b, d = 5, 6, 7 // 2, 2.6 and 3.1 GB: b is 0.6 from a, 0.5 from d, and d is 1.1 from a
	ops := costOps(plan.SMJ, a, b, b, d, b, b)
	got := runReuseScript(t, cost.PaperModels(), resource.NearestNeighbor, 1,
		[]reuseContext{{cond: cluster.Default()}}, []reuseCall{{ops: ops}})[0]
	if got[1].res != got[0].res || got[4].res != got[3].res {
		t.Fatalf("b is not answered by its nearest neighbour: %+v", got)
	}
	if got[1].res == got[4].res {
		t.Fatalf("a and d have one configuration (%v); the drift changes nothing", got[1].res)
	}
}

// TestCosterReuseAfterReset: a Reset in the middle of a call, as a
// recalibration does to a shared cache, empties what the call's table holds.
func TestCosterReuseAfterReset(t *testing.T) {
	ops := append(costOps(plan.SMJ, 3, 3, 4), reuseOp{reset: true})
	ops = append(ops, costOps(plan.SMJ, 3, 4, 3)...)
	runReuseScript(t, cost.PaperModels(), resource.NearestNeighbor, 0.5,
		[]reuseContext{{cond: cluster.Default()}}, []reuseCall{{ops: ops}})
}

// TestCosterReuseIsPerCall: two calls over two caches at the same Version
// ask the same question under different conditions; the second must not
// get the first's answer from a recycled table.
func TestCosterReuseIsPerCall(t *testing.T) {
	contexts := []reuseContext{{cond: cluster.Default()}, {cond: fractionalGrid}}
	got := runReuseScript(t, cost.PaperModels(), resource.Exact, 0, contexts, []reuseCall{
		{ctx: 0, ops: costOps(plan.SMJ, 8)},
		{ctx: 1, ops: costOps(plan.SMJ, 8)},
		{ctx: 0, ops: costOps(plan.SMJ, 8, 8)},
		{ctx: 1, ops: costOps(plan.SMJ, 8, 8)},
	})
	if got[0][0].res == got[1][0].res {
		t.Fatalf("both conditions give %v; the comparison covers nothing", got[0][0].res)
	}
}

// TestCosterReuseRecordsHitsOnly: on a fractional grid the configuration a
// miss returns (the climb's own bits) and the one the next exact hit returns
// (snapped by Clamp) can differ. Only the second may be reused.
func TestCosterReuseRecordsHitsOnly(t *testing.T) {
	var ops []reuseOp
	for _, algo := range plan.Algos {
		for rel := range reuseSizes {
			ops = append(ops, costOps(algo, rel, rel, rel)...)
		}
	}
	got := runReuseScript(t, cost.PaperModels(), resource.Exact, 0,
		[]reuseContext{{cond: fractionalGrid}}, []reuseCall{{ops: ops}})[0]
	differ := 0
	for i := 0; i < len(got); i += 3 {
		if got[i].res != got[i+1].res {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("every miss returned its hit's configuration; the comparison covers nothing")
	}
}

// TestCosterReuseKeysAlgorithm: the same input size priced as a sort-merge
// and as a broadcast join are two questions to two cost models.
func TestCosterReuseKeysAlgorithm(t *testing.T) {
	var ops []reuseOp
	for rel := range reuseSizes {
		ops = append(ops, reuseOp{algo: plan.SMJ, rel: rel}, reuseOp{algo: plan.SMJ, rel: rel},
			reuseOp{algo: plan.BHJ, rel: rel}, reuseOp{algo: plan.BHJ, rel: rel})
	}
	runReuseScript(t, cost.PaperModels(), resource.Exact, 0,
		[]reuseContext{{cond: cluster.Default()}}, []reuseCall{{ops: ops}})
}

// decodeReuseScript turns bytes into a script. The first byte picks the
// lookup mode and threshold, the second the engine; then each byte is one
// op: a new call (under either of two contexts, the default and the
// fractional grid), a reset, or a costing of one of the scripted joins.
func decodeReuseScript(data []byte) (resource.LookupMode, float64, []reuseContext, []reuseCall) {
	mode, threshold := resource.NearestNeighbor, 1.0
	var engine *execsim.Params
	if len(data) > 0 {
		mode = resource.LookupMode(data[0] % 3)
		threshold = []float64{0, 0.01, 0.5, 1}[data[0]/3%4]
	}
	if len(data) > 1 && data[1]%2 == 1 {
		hive := execsim.Hive()
		engine = &hive
	}
	contexts := []reuseContext{{cluster.Default(), engine}, {fractionalGrid, engine}}
	calls := []reuseCall{{}}
	for i := 2; i < len(data) && i < 256; i++ {
		b := data[i]
		switch {
		case b >= 0xf0:
			calls = append(calls, reuseCall{ctx: int(b % 2)})
		case b >= 0xe8:
			last := &calls[len(calls)-1]
			last.ops = append(last.ops, reuseOp{reset: true})
		default:
			last := &calls[len(calls)-1]
			last.ops = append(last.ops, reuseOp{algo: plan.JoinAlgo(b % 2), rel: int(b/2) % len(reuseSizes)})
		}
	}
	return mode, threshold, contexts, calls
}

// FuzzCosterReuse runs scripts of costings, resets and call boundaries
// decoded from bytes through runReuseScript.
func FuzzCosterReuse(f *testing.F) {
	// The handcrafted cases' shapes: drift, a reset mid-call, two contexts.
	f.Add([]byte{10, 0, 10, 12, 12, 14, 12, 12})
	f.Add([]byte{7, 1, 6, 6, 8, 0xe8, 6, 8, 6, 7, 7})
	f.Add([]byte{0, 0, 16, 0xf1, 16, 0xf0, 16, 16, 0xf1, 16, 17, 17})
	f.Add([]byte{11, 1, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 1, 3, 5, 7, 9, 11, 13, 15, 0xf1, 2, 4, 2, 4})
	models := cost.PaperModels()
	f.Fuzz(func(t *testing.T, data []byte) {
		mode, threshold, contexts, calls := decodeReuseScript(data)
		runReuseScript(t, models, mode, threshold, contexts, calls)
	})
}
