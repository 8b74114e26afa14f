package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
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
// per-call answer reuse, and the reference the reuse is held to. With a
// log, it also shows the log every question and answer.
type refCache struct {
	c   *resource.Cache
	log *askLog
}

func (r refCache) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	res, _, err := r.PlanCounted(m, ssGB, cond)
	return res, err
}

func (r refCache) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	before := r.c.Version()
	res, n, err := r.c.PlanCounted(m, ssGB, cond)
	if r.log != nil && err == nil {
		r.log.ask(askKey{m.Name(), math.Float64bits(ssGB)}, res, before, r.c.Version())
	}
	return res, n, err
}

func (r refCache) Evaluations() int64 { return r.c.Evaluations() }

// askKey is one question to a cache: a cost model and the bits of a size.
type askKey struct {
	model string
	bits  uint64
}

// askRecord is the last answer a question got within a call.
type askRecord struct {
	res   plan.Resources
	after uint64 // the cache's Version after the ask
	hit   bool   // Version read the same before and after the ask
}

// askLog watches the questions of planning calls, while on, and counts
// the two events that make an answer the call was given the wrong one to
// reuse later in the call: a hit whose answer has drifted by the next ask
// of its question, after an insert in between (drifted), and a miss whose
// answer differs from the next ask's at the same Version (snapped).
type askLog struct {
	on               bool
	last             map[askKey]askRecord
	drifted, snapped int
}

// begin starts a call: answers given in earlier calls are forgotten.
func (l *askLog) begin() {
	l.on = true
	clear(l.last)
}

func (l *askLog) ask(k askKey, res plan.Resources, before, after uint64) {
	if !l.on {
		return
	}
	if prev, ok := l.last[k]; ok && res != prev.res {
		switch {
		case prev.hit && before != prev.after:
			l.drifted++
		case !prev.hit && before == prev.after:
			l.snapped++
		}
	}
	l.last[k] = askRecord{res: res, after: after, hit: before == after}
}

// scriptedPlanner answers each question with a configuration drawn from
// the bits of its model's name and its size, over twice the width of the
// conditions and off their grid. Nearby sizes get unrelated
// configurations, so a nearest-neighbour or weighted answer moves whenever
// a closer key arrives; and the draw a miss returns is not the clamped
// one later hits return. Each answer counts one evaluation.
type scriptedPlanner struct{ evals atomic.Int64 }

func (s *scriptedPlanner) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	r, _, err := s.PlanCounted(m, ssGB, cond)
	return r, err
}

func (s *scriptedPlanner) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	h := math.Float64bits(ssGB)
	for _, b := range []byte(m.Name()) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h *= 0x9e3779b97f4a7c15
	s.evals.Add(1)
	span := cond.MaxContainers - cond.MinContainers
	return plan.Resources{
		Containers:  cond.MinContainers + int(h>>32%uint64(2*span+1)),
		ContainerGB: cond.MinContainerGB + float64(h&0xffff)/0xffff*2*(cond.MaxContainerGB-cond.MinContainerGB),
	}, 1, nil
}

func (s *scriptedPlanner) Evaluations() int64 { return s.evals.Load() }

// newInner is the planner behind an oracle cache: a scriptedPlanner or a
// hill climb.
func newInner(scripted bool) resource.Planner {
	if scripted {
		return &scriptedPlanner{}
	}
	return &resource.HillClimb{}
}

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
	// perCondition is OptimizeRobust's per-scenario times, as bits.
	perCondition string
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

// robustOutcome is decisionOutcome for OptimizeRobust: the plan, its
// objective in time and its per-scenario times.
func robustOutcome(d *RobustDecision, err error, stats resource.Stats) reuseOutcome {
	out := reuseOutcome{stats: stats}
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.plan = d.Plan
	out.time = math.Float64bits(d.Objective)
	for _, v := range d.PerCondition {
		out.perCondition = fmt.Sprintf("%s %x", out.perCondition, math.Float64bits(v))
	}
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
// The reference side logs its Optimize calls' questions.
type reuseSide struct {
	o     *Optimizer
	cache *resource.Cache
	log   *askLog
}

func newReuseSide(t *testing.T, ref bool, cond cluster.Conditions, opts Options, inner resource.Planner, mode resource.LookupMode, thresholdGB float64) reuseSide {
	t.Helper()
	cache := &resource.Cache{Inner: inner, Mode: mode, ThresholdGB: thresholdGB}
	opts.Resource = cache
	var log *askLog
	if ref {
		log = &askLog{last: map[askKey]askRecord{}}
		opts.Resource = refCache{cache, log}
	}
	o, err := New(cond, opts)
	if err != nil {
		t.Fatal(err)
	}
	return reuseSide{o, cache, log}
}

// optimize is Optimize, keeping the call's Coster to read its prune count
// and how many answers it reused.
func (s reuseSide) optimize(q *plan.Query) (reuseOutcome, int64) {
	if s.log != nil {
		s.log.begin()
		defer func() { s.log.on = false }()
	}
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
// full Stats. Resource-only planning, price-bounded planning and robust
// planning over two scenarios price trees through the same per-call table
// and are compared the same way.
//
// Behind a hill climb, a reused answer rarely differs from what the cache
// would say by enough to change a plan. Behind scriptedPlanner it does:
// there the Selinger calls must meet both events askLog counts, so a DP
// that keeps a miss's answer, or serves an answer without comparing the
// epoch, plans differently from the reference.
func TestCosterReuseMatchesCache(t *testing.T) {
	models := trainedModels(t)
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
	reused := map[PlannerKind]int64{}
	var drifted, snapped int
	for _, schema := range []string{"tpch", "random30", "random100"} {
		queries := reuseQueries(t, schema)
		for _, kind := range []PlannerKind{Selinger, FastRandomized} {
			for _, lk := range lookups {
				for _, engine := range []*execsim.Params{nil, &hive} {
					for _, cd := range conds {
						for _, scripted := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%s@%g/engine=%v/%s/scripted=%v", schema, kind, lk.mode, lk.thresholdGB, engine != nil, cd.name, scripted)
							opts := Options{
								Planner: kind, Models: models, Engine: engine, Seed: 7,
								Randomized: randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2},
							}
							half, err := cd.cond.Restrict(cd.cond.MaxContainers/2, cd.cond.MaxContainerGB/2)
							if err != nil {
								t.Fatal(err)
							}
							scenarios := []cluster.Conditions{cd.cond, half}
							reuse := newReuseSide(t, false, cd.cond, opts, newInner(scripted), lk.mode, lk.thresholdGB)
							ref := newReuseSide(t, true, cd.cond, opts, newInner(scripted), lk.mode, lk.thresholdGB)
							for pass := range 2 {
								for i, query := range queries[kind] {
									what := fmt.Sprintf("%s pass %d query %d", name, pass, i)
									got, n := reuse.optimize(query)
									want, _ := ref.optimize(query)
									sameOutcome(t, what, got, want)
									reused[kind] += n
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
									gr, gerr := reuse.o.OptimizeRobust(query, scenarios, WorstCase)
									wr, werr := ref.o.OptimizeRobust(query, scenarios, WorstCase)
									sameOutcome(t, what+" OptimizeRobust", robustOutcome(gr, gerr, reuse.cache.Stats()), robustOutcome(wr, werr, ref.cache.Stats()))
								}
							}
							if scripted && kind == Selinger {
								drifted += ref.log.drifted
								snapped += ref.log.snapped
							}
						}
					}
				}
			}
		}
	}
	if reused[Selinger] == 0 || reused[FastRandomized] == 0 {
		t.Fatalf("reused %v: a planner reused no answer, the comparison covers nothing", reused)
	}
	if drifted == 0 || snapped == 0 {
		t.Fatalf("the scripted Selinger calls met %d drifted and %d snapped answers: a wrong epoch rule goes unseen", drifted, snapped)
	}
}

// reuseSizes are the smaller-input sizes, in GB, of the scripted joins: a
// ladder with gaps on both sides of every threshold the tests use, so
// nearest-neighbour and weighted answers move as entries arrive. The last
// two collide with the sort-merge question at 2.6 GB (index 6) in the
// answer table: index 12 as a sort-merge question, index 13 as a
// broadcast one.
var reuseSizes = append([]float64{0.05, 0.3, 1, 1.004, 1.2, 2, 2.6, 3.1, 5, 8, 12, 20},
	collider(plan.SMJ, 2.6), collider(plan.BHJ, 2.6))

// reuseRowBytes is the row width of the scripted joins' tables.
const reuseRowBytes = 100

// scriptedGB is the smaller-input size a scripted join built for gb
// reports: gb in whole rows.
func scriptedGB(gb float64) float64 {
	return float64(int64(gb*float64(units.GB)/reuseRowBytes)*reuseRowBytes) / float64(units.GB)
}

// collider finds, by brute force over whole-row sizes from 10 GB up, a
// size whose question by algo takes the answer-table slot of the
// sort-merge question at gb.
func collider(algo plan.JoinAlgo, gb float64) float64 {
	want := answerIndex(plan.SMJ, math.Float64bits(scriptedGB(gb)))
	for rows := int64(10 * units.GB / reuseRowBytes); ; rows += 1 << 14 {
		size := float64(rows*reuseRowBytes) / float64(units.GB)
		if answerIndex(algo, math.Float64bits(size)) == want {
			return size
		}
	}
}

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
	big := catalog.Table{Name: "big", Rows: 1 << 32, RowBytes: reuseRowBytes}
	if err := s.AddTable(big); err != nil {
		t.Fatal(err)
	}
	for i, gb := range reuseSizes {
		name := fmt.Sprintf("t%02d", i)
		if err := s.AddTable(catalog.Table{Name: name, Rows: int64(gb * float64(units.GB) / reuseRowBytes), RowBytes: reuseRowBytes}); err != nil {
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
		oc, rc := mk(oursCaches[call.ctx]), mk(refCache{c: refCaches[call.ctx]})
		oc.beginCall(true)
		rc.beginCall(true)
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

// TestCosterReuseCollision: questions that share one answer-table slot,
// asked alternately within one call while misses insert around them,
// overwrite each other's answers and go back to the cache, which answers
// them as it would have. A slot served without comparing its bits hands
// one question the other's configuration, one served without comparing
// its Version misses the drift a later insert causes, and a table keyed
// without the algorithm prices the broadcast question at 2.6 GB from the
// sort-merge answer.
func TestCosterReuseCollision(t *testing.T) {
	const a, b, d, y, z = 5, 6, 7, 12, 13 // 2, 2.6 and 3.1 GB; y and z take b's slot
	ours, _ := reuseJoins(t)
	slot := func(algo plan.JoinAlgo, rel int) uint64 {
		return answerIndex(algo, math.Float64bits(ours[algo][rel].SmallerInputGB()))
	}
	if slot(plan.SMJ, y) != slot(plan.SMJ, b) || slot(plan.BHJ, z) != slot(plan.SMJ, b) {
		t.Fatal("the colliding sizes do not take the 2.6 GB question's slot")
	}
	ops := costOps(plan.SMJ, a, b, b, y, b, y, y, b)
	ops = append(ops, costOps(plan.BHJ, z, z, b, b)...)
	ops = append(ops, costOps(plan.SMJ, b, b, d, b, y, b, b)...)
	const yAfterB, bBeforeD, bAfterD = 5, 13, 15
	for _, mode := range []resource.LookupMode{resource.Exact, resource.NearestNeighbor, resource.WeightedAverage} {
		got := runReuseScript(t, cost.PaperModels(), mode, 1,
			[]reuseContext{{cond: cluster.Default()}}, []reuseCall{{ops: ops}})[0]
		if got[yAfterB].res == got[yAfterB-1].res {
			t.Fatalf("%v: the colliding questions have one configuration (%v); the bits comparison covers nothing", mode, got[yAfterB].res)
		}
		if mode == resource.NearestNeighbor && got[bAfterD].res == got[bBeforeD].res {
			t.Fatalf("the 2.6 GB question does not drift when 3.1 GB arrives (%v); the Version comparison covers nothing", got[bAfterD].res)
		}
	}
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
	// TestCosterReuseCollision's script: 2.6 GB (12) and the sizes that
	// take its slot (24 by sort-merge, 27 by broadcast), asked alternately.
	f.Add([]byte{10, 0, 10, 12, 12, 24, 12, 24, 24, 12, 27, 27, 13, 13, 12, 12, 14, 12, 24, 12, 12})
	models := cost.PaperModels()
	f.Fuzz(func(t *testing.T, data []byte) {
		mode, threshold, contexts, calls := decodeReuseScript(data)
		runReuseScript(t, models, mode, threshold, contexts, calls)
	})
}

// FuzzSelingerReuse plans random queries with the Selinger DP on both sides
// of TestCosterReuseMatchesCache's oracle, one pass: the first byte picks
// the lookup mode and threshold, the second the engine, the grid and the
// inner planner, the third the 30-table schema's seed; each further byte is
// one query, its relation count (2 to 12) and its seed.
func FuzzSelingerReuse(f *testing.F) {
	f.Add([]byte{7, 2, 1, 10, 10, 21, 32})
	f.Add([]byte{10, 6, 2, 40, 41, 52, 9, 10})
	f.Add([]byte{13, 3, 3, 10, 98, 54, 10})
	// Found by fuzzing DPs that keep a miss's answer, and that serve an
	// answer without comparing the epoch.
	f.Add([]byte("07y\x800"))
	f.Add([]byte("27B01A"))
	models := cost.PaperModels()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		mode := resource.LookupMode(data[0] % 3)
		threshold := []float64{0, 0.01, 0.5, 1, 10}[data[0]/3%5]
		var engine *execsim.Params
		if data[1]%2 == 1 {
			hive := execsim.Hive()
			engine = &hive
		}
		cond := []cluster.Conditions{cluster.Default(), fractionalGrid}[data[1]/2%2]
		scripted := data[1]/4%2 == 1
		s, err := catalog.Random(rand.New(rand.NewSource(int64(data[2]))), 30, catalog.DefaultRandomConfig())
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Planner: Selinger, Models: models, Engine: engine}
		reuse := newReuseSide(t, false, cond, opts, newInner(scripted), mode, threshold)
		ref := newReuseSide(t, true, cond, opts, newInner(scripted), mode, threshold)
		for i, b := range data[3:min(len(data), 3+16)] {
			query, err := workload.RandomQuery(rand.New(rand.NewSource(int64(b))), s, 2+int(b)%11)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := reuse.optimize(query)
			want, _ := ref.optimize(query)
			sameOutcome(t, fmt.Sprintf("query %d (%v)", i, query.Rels), got, want)
		}
	})
}
