// Allocation gates for the planning hot path. TestHotPathAllocCeilings
// runs under plain `go test` (and `make check` via the alloc-check
// target) and fails on allocation regressions: the pooled DP state,
// plan arena, structural plan equality and exact re-optimization memo
// keep steady-state planning allocations bounded, and these ceilings
// pin that down. Run the timings with:
//
//	go test -bench HotPath -benchtime=0.2s .
package raqo_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/server"
	"raqo/internal/workload"
)

// hotPathOptimizer is a warm joint optimizer in the serving
// configuration: cost memo on, Selinger DP, trained-model-free defaults.
func hotPathOptimizer(tb testing.TB) (*core.Optimizer, *plan.Query) {
	tb.Helper()
	engine := execsim.Hive()
	o, err := core.New(cluster.Default(), core.Options{
		Seed: 42, Engine: &engine, MemoizeCosts: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	q, err := workload.TPCHQuery(catalog.TPCH(100), workload.All)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := o.Optimize(q); err != nil { // warm the memo
		tb.Fatal(err)
	}
	return o, q
}

// coldPlanner returns a function planning one relations-way query over a
// seeded random 100-table schema from cold — a new optimizer per call, no
// cost memo — which is the regime of the paper's scaling experiments
// (Figure 15) and of the benchmark's plan_scale workload, where join
// enumeration rather than costing dominates. Each call gets an empty
// nearest-neighbour resource-plan cache, or with passWarm every call shares
// one, as the optimizers of one plan_scale pass over its query pool do: the
// first call fills it, and the later ones plan on a cache that answers
// every question without an insert.
func coldPlanner(tb testing.TB, planner core.PlannerKind, relations int, passWarm bool) func() {
	tb.Helper()
	q := coldQuery(tb, relations)
	cache := coldCache()
	return func() {
		if !passWarm {
			cache = coldCache()
		}
		if _, err := coldOptimizer(tb, planner, cache).Optimize(q); err != nil {
			tb.Fatal(err)
		}
	}
}

// coldQuery is the cold cases' relations-way query over a seeded random
// 100-table schema.
func coldQuery(tb testing.TB, relations int) *plan.Query {
	tb.Helper()
	rng := rand.New(rand.NewSource(715))
	s, err := catalog.Random(rng, 100, catalog.DefaultRandomConfig())
	if err != nil {
		tb.Fatal(err)
	}
	q, err := workload.RandomQuery(rng, s, relations)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// coldCache is an empty resource-plan cache in the cold cases'
// configuration: hill climbing behind a nearest-neighbour cache at
// plan_scale's threshold.
func coldCache() *resource.Cache {
	return &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.01}
}

// coldOptimizer is a new optimizer in the cold cases' configuration,
// planning resources with rp.
func coldOptimizer(tb testing.TB, planner core.PlannerKind, rp resource.Planner) *core.Optimizer {
	tb.Helper()
	o, err := core.New(cluster.Default(), core.Options{
		Planner:    planner,
		Resource:   rp,
		Seed:       7,
		Randomized: randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return o
}

// TestHotPathAllocCeilings asserts hard allocation ceilings on the
// steady-state hot paths. The ceilings carry slack over the measured
// numbers (`go test -bench HotPath -benchmem .`) so noise does not flake
// the gate, but an accidental per-candidate or per-operator allocation —
// the regressions the pooled state exists to prevent — blows through them.
func TestHotPathAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds allocations; ceilings hold on plain builds only")
	}
	if testing.Short() {
		t.Skip("alloc gate is not meaningful under -short")
	}

	// Warm joint optimization of the 8-relation TPC-H All query: the full
	// Selinger DP with pooled state, arena plans and memoized costs. The
	// seed measured ~3162 allocs on this path and the pooling overhaul
	// brought it to 34 (the winning plan's deep copy, mostly); the ceiling
	// is that plus slack for a pool emptied by a collection mid-run.
	o, q := hotPathOptimizer(t)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := o.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}); got > 64 {
		t.Errorf("warm Optimize(All) allocates %.0f/op, ceiling 64", got)
	}

	// Cold planning on a 100-table schema, the regime the join-graph index
	// serves: what is left is the new optimizer and its coster, the
	// resource-plan cache fills and the winning plan's two-allocation
	// copy (measured 135 and 108; 180 and 536 when the randomized search
	// built every tree on the heap and Clone allocated per node, 203 and 736
	// before the index). The ceilings are those plus 15 %. A per-candidate
	// allocation in the enumeration kernel — thousands of Selinger
	// candidates, a node per random-tree merge or mutation — would be off
	// these by an order of magnitude.
	if got := testing.AllocsPerRun(20, coldPlanner(t, core.Selinger, 12, false)); got > 155 {
		t.Errorf("cold Selinger-12 allocates %.0f/op, ceiling 155", got)
	}
	if got := testing.AllocsPerRun(20, coldPlanner(t, core.FastRandomized, 30, false)); got > 124 {
		t.Errorf("cold FastRandomized-30 allocates %.0f/op, ceiling 124", got)
	}

	// The cold Selinger-12 query re-planned by new optimizers on the cache a
	// first plan filled, as in a plan_scale pass: the coster answers the
	// repeats from a pooled per-call table, which must cost no allocation.
	// The same runs with the cache hidden behind a plain Planner, so that no
	// answer is reused, allocate exactly as much.
	passWarm := coldPlanner(t, core.Selinger, 12, true)
	passWarm()
	warmCache, warmSelinger := coldCache(), coldQuery(t, 12)
	hidden := func() {
		if _, err := coldOptimizer(t, core.Selinger, hiddenCache{warmCache}).Optimize(warmSelinger); err != nil {
			t.Fatal(err)
		}
	}
	hidden()
	if reuse, plain := testing.AllocsPerRun(20, passWarm), testing.AllocsPerRun(20, hidden); reuse != plain {
		t.Errorf("pass-warm Selinger-12 allocates %.0f/op with answer reuse, %.0f/op without", reuse, plain)
	}

	// The same randomized-30 query re-planned by one optimizer: the search
	// state, its arena and generator come from the pool and the cache is
	// warm, so what is left is the coster, the planner, the Decision and the
	// winner's copy (measured 7; 434 with heap-built trees). The ceiling
	// leaves room for a pool a collection emptied mid-run.
	warmRandomized, warmQuery := coldOptimizer(t, core.FastRandomized, coldCache()), coldQuery(t, 30)
	if _, err := warmRandomized.Optimize(warmQuery); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := warmRandomized.Optimize(warmQuery); err != nil {
			t.Fatal(err)
		}
	}); got > 12 {
		t.Errorf("warm FastRandomized-30 Optimize allocates %.0f/op, ceiling 12", got)
	}

	// One cost-model evaluation, of which a cold op makes ~1 500: the
	// unrolled regression, no feature slice.
	smjModel := cost.PaperSMJ()
	if got := testing.AllocsPerRun(50, func() {
		if smjModel.Cost(1.5, 3, 40) <= 0 {
			t.Fatal("non-positive floored cost")
		}
	}); got > 0 {
		t.Errorf("Regression.Cost allocates %.0f/op, ceiling 0", got)
	}

	// Warm resource-plan cache hit, the probe every costed candidate pays:
	// a nearest-neighbour answer from a populated index is one read lock
	// and one binary search, no allocation.
	cache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.1}
	smj := cost.PaperSMJ()
	for i := 0; i < 64; i++ {
		if _, err := cache.Plan(smj, float64(i), cluster.Default()); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, n, err := cache.PlanCounted(smj, 31.05, cluster.Default()); err != nil || n != 0 {
			t.Fatalf("warm cache hit: evaluations=%d err=%v", n, err)
		}
	}); got > 0 {
		t.Errorf("warm nearest-neighbour cache hit allocates %.0f/op, ceiling 0", got)
	}

	// Plan identity: the arbiters' "did the re-plan change anything?" is a
	// structural walk of both trees, never a string build.
	d, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	same := d.Plan.Clone()
	if got := testing.AllocsPerRun(50, func() {
		if !d.Plan.Equal(same) {
			t.Fatal("a clone is not Equal to its original")
		}
	}); got > 0 {
		t.Errorf("Node.Equal allocates %.0f/op, ceiling 0", got)
	}

	// Incremental re-optimization exact hit: answering a repeated
	// condition must be a memo lookup, not a re-plan.
	inc := core.NewIncremental(o)
	cond := cluster.Default()
	if _, _, err := inc.Optimize(q, cond); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, src, err := inc.Optimize(q, cond); err != nil || src != core.ReoptExact {
			t.Fatalf("exact hit: src=%v err=%v", src, err)
		}
	}); got > 8 {
		t.Errorf("incremental exact hit allocates %.0f/op, ceiling 8", got)
	}

	// The serving path end to end on a body not seen before: routing,
	// decode, admission, warm planning, JSON encoding and filing the answer
	// in the response memo. Same 1000 ceiling as the planner — the
	// acceptance bar of the overhaul (seed: 3162 allocs/op on query=All).
	s := newBenchServer(t)
	serveOptimizeOnce(t, s, "All")
	distinct := 0
	if got := testing.AllocsPerRun(20, func() {
		distinct++
		serveOptimizeBody(t, s, `{"query":"All","containers":`+strconv.Itoa(distinct)+`}`)
	}); got > 1000 {
		t.Errorf("warm /v1/optimize query=All on a new body allocates %.0f/op, ceiling 1000", got)
	}

	// The same path on an exact repeat: the response memo answers with
	// stored bytes, so what is left is the test's own request and recorder,
	// the mux, the body read and the metrics (measured 24; the planning
	// path above measures 108). A decode, a plan or an encode on a hit
	// goes through the ceiling.
	if got := testing.AllocsPerRun(50, func() {
		serveOptimizeOnce(t, s, "All")
	}); got > 28 {
		t.Errorf("memo-hit /v1/optimize query=All allocates %.0f/op, ceiling 28", got)
	}

	// One forwarded /v1/submit between two in-process fleet nodes, counted
	// across both: the entry node's routing and peer transport, the owner's
	// net/http server and arbiter, the relay (measured 117, with the test's
	// own request and recorder; 176 when the hop went through net/http's
	// client). A request object, goroutine or timer per hop goes through it.
	forward := newBenchFleet(t)
	forward(true, "t/default", "/v1/submit", `{"query":"Q12"}`) // dial
	if got := testing.AllocsPerRun(50, func() {
		forward(true, "t/default", "/v1/submit", `{"query":"Q12"}`)
	}); got > 140 {
		t.Errorf("forwarded /v1/submit allocates %.0f/op across both nodes, ceiling 140", got)
	}

	// One eight-observation /v1/feedback batch in the repository benchmark's
	// shape, with the journal and the history store attached: the codec's
	// observation slab and one string per signature, the wire lines copied
	// into the reused journal buffer, plus the test's own request and
	// recorder, the mux and the metrics (measured 32; 33 with the reflective
	// response encoder, 138 when encoding/json decoded the batch and encoded
	// each journal line). The ceiling is the measurement plus 15 %. A
	// reflective decode or a per-observation journal write goes through it.
	fb := newFeedbackBenchServer(t)
	fbBody := benchFeedbackBodies(t, 1)[0]
	serveFeedbackBody(t, fb, fbBody)
	if got := testing.AllocsPerRun(50, func() {
		serveFeedbackBody(t, fb, fbBody)
	}); got > 37 {
		t.Errorf("eight-observation /v1/feedback allocates %.0f/op, ceiling 37", got)
	}
	scrape := httptest.NewRecorder()
	fb.ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(scrape.Body.String(), "\nraqo_feedback_decode_fallback_total 0\n") {
		t.Error("the benchmark-shaped batch fell back to encoding/json")
	}

	// The /v1/history read: ten minute buckets at step 60 from the day-scale
	// store is the result slice plus one slab holding every output bucket's
	// sketch window (measured 2; 11 with a window grown per bucket, 301 with
	// the map-based sketch and the bucket-map walk), and the three
	// quantiles the handler then reads off each bucket are one in-place pass
	// over that window.
	st := benchHistoryQueryStore(t)
	var rows []history.Bucket
	if got := testing.AllocsPerRun(50, func() {
		var err error
		if rows, err = st.Query("bench.series.00", 6000, 6600, 60); err != nil || len(rows) != 10 {
			t.Fatalf("ten-bucket query: %d rows, err=%v", len(rows), err)
		}
	}); got > 4 {
		t.Errorf("ten-bucket Store.Query allocates %.0f/op, ceiling 4", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		if q := rows[3].Quantiles(0.5, 0.9, 0.99); q[0] > q[2] {
			t.Fatal("quantiles out of order")
		}
	}); got > 0 {
		t.Errorf("Bucket.Quantiles allocates %.0f/op, ceiling 0", got)
	}

	// The same read through the handler, in the repository benchmark's
	// shape: query parameters, the query and the fixed-shape encoder, plus
	// the test's own request and recorder, the mux and the metrics
	// (measured 28; 39 with the HistoryResponse rows built and encoded by
	// encoding/json and a sketch window grown per bucket). The ceiling is
	// the measurement plus 15 %.
	hs := newHistoryBenchServer(t)
	serveHistoryGET(t, hs)
	if got := testing.AllocsPerRun(50, func() {
		serveHistoryGET(t, hs)
	}); got > 32 {
		t.Errorf("ten-bucket GET /v1/history allocates %.0f/op, ceiling 32", got)
	}

	// The drift check every feedback acknowledgement makes: one counting
	// pass per window — no key sort, no ClassStats slice, no sorted copies.
	det := feedback.NewDetector(feedback.DriftConfig{})
	for _, ob := range benchObservations(t) {
		det.Observe(ob)
	}
	if got := testing.AllocsPerRun(50, func() { det.Drifted() }); got > 0 {
		t.Errorf("Detector.Drifted allocates %.0f/op, ceiling 0", got)
	}

	// One admission's fault draw replays its math/rand stream in the
	// injector's own source (one 5.4 KB source per draw before).
	inj, err := cloud.NewInjector(cloud.FaultConfig{Seed: 7, SpotMeanLifeSeconds: 7200, StragglerProb: 0.1, OOMProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	if got := testing.AllocsPerRun(50, func() {
		seq++
		inj.Draw(seq, cloud.Spot, 100, 300)
	}); got > 0 {
		t.Errorf("Injector.Draw allocates %.0f/op, ceiling 0", got)
	}

	// A local /v1/submit and /v1/cloud/submit, seeded faults on, with the
	// test's own request and recorder: decode, the arbiter's admission and
	// the encoded outcome (measured 46 and 44; 53 and 52 with a math/rand
	// source per draw and the encoder's indent pass). The ceilings are the
	// measurements plus 15 %.
	sub, err := server.New(server.Config{CloudSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path    string
		ceiling float64
	}{{"/v1/submit", 53}, {"/v1/cloud/submit", 51}} {
		serveBody(t, sub, c.path, `{"query":"Q12"}`)
		if got := testing.AllocsPerRun(50, func() {
			serveBody(t, sub, c.path, `{"query":"Q12"}`)
		}); got > c.ceiling {
			t.Errorf("local %s allocates %.0f/op, ceiling %.0f", c.path, got, c.ceiling)
		}
	}
}

// BenchmarkHotPathOptimize times the warm joint optimization the alloc
// gate bounds.
func BenchmarkHotPathOptimize(b *testing.B) {
	o, q := hotPathOptimizer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathIncrementalExact times the exact-memo answer path of
// incremental re-optimization.
func BenchmarkHotPathIncrementalExact(b *testing.B) {
	o, q := hotPathOptimizer(b)
	inc := core.NewIncremental(o)
	cond := cluster.Default()
	if _, _, err := inc.Optimize(q, cond); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inc.Optimize(q, cond); err != nil {
			b.Fatal(err)
		}
	}
}

// coldCases are the two query classes that own the plan_scale workload's
// p90 and p50.
var coldCases = []struct {
	name      string
	planner   core.PlannerKind
	relations int
}{
	{"selinger-12", core.Selinger, 12},
	{"randomized-30", core.FastRandomized, 30},
}

func benchmarkCold(planner core.PlannerKind, relations int, passWarm bool) func(b *testing.B) {
	return func(b *testing.B) {
		run := coldPlanner(b, planner, relations, passWarm)
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

// BenchmarkHotPathCold times cold planning on a 100-table schema: a new
// optimizer per run, over an empty resource-plan cache or, in the
// -passwarm cases, over one cache kept across runs.
func BenchmarkHotPathCold(b *testing.B) {
	for _, c := range coldCases {
		b.Run(c.name, benchmarkCold(c.planner, c.relations, false))
	}
	for _, c := range coldCases {
		b.Run(c.name+"-passwarm", benchmarkCold(c.planner, c.relations, true))
	}
}

// hiddenCache forwards a resource-plan cache's Planner and Counted methods
// and nothing else, so a Coster planning through it cannot see the cache's
// Version and reuses none of its answers.
type hiddenCache struct{ c *resource.Cache }

func (h hiddenCache) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	return h.c.Plan(m, ssGB, cond)
}

func (h hiddenCache) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	return h.c.PlanCounted(m, ssGB, cond)
}

func (h hiddenCache) Evaluations() int64 { return h.c.Evaluations() }

// BenchmarkRandomTree times one random bushy tree for the randomized-30
// cold case's query through a reused TreeScratch, reset after each tree as
// a search's pooled state is: the seed-plan step of the randomized planner,
// nothing but enumeration and the joins it builds in the arena.
func BenchmarkRandomTree(b *testing.B) {
	rng := rand.New(rand.NewSource(715))
	s, err := catalog.Random(rng, 100, catalog.DefaultRandomConfig())
	if err != nil {
		b.Fatal(err)
	}
	q, err := workload.RandomQuery(rng, s, 30)
	if err != nil {
		b.Fatal(err)
	}
	var ts optimizer.TreeScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.RandomTree(rng, q); err != nil {
			b.Fatal(err)
		}
		ts.Reset()
	}
}

// BenchmarkRegressionCost times one evaluation of the paper's SMJ model,
// floored, over the inputs a hill climb steps through.
func BenchmarkRegressionCost(b *testing.B) {
	m := cost.PaperSMJ()
	var sum float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum += m.Cost(1.5, float64(1+i%10), float64(1+i%100))
	}
	if sum <= 0 {
		b.Fatal("non-positive floored costs")
	}
}
