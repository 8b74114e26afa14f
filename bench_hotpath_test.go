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
	"bufio"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
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
	"raqo/internal/scheduler"
	"raqo/internal/server"
	"raqo/internal/workload"
)

// hotPathOptimizer is a warm joint optimizer in the serving
// configuration: cost memo on, Selinger DP, the served trained models.
func hotPathOptimizer(tb testing.TB) (*core.Optimizer, *plan.Query) {
	tb.Helper()
	models, _ := benchFixtures(tb)
	engine := execsim.Hive()
	o, err := core.New(cluster.Default(), core.Options{
		Models: models, Seed: 42, Engine: &engine, MemoizeCosts: true,
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

// coldMode is what the calls of a coldPlanner share.
type coldMode int

const (
	// coldEach: one query, an empty resource-plan cache per call.
	coldEach coldMode = iota
	// coldPassWarm: one query and one cache across calls.
	coldPassWarm
	// coldFresh: an empty cache and a new plan.Query per call, so no call
	// finds the query's planning form built by an earlier one.
	coldFresh
)

// coldPlanner returns a function planning one relations-way query over a
// seeded random 100-table schema from cold — a new optimizer per call, no
// cost memo — which is the regime of the paper's scaling experiments
// (Figure 15) and of the benchmark's plan_scale workload, where join
// enumeration rather than costing dominates. Each call gets an empty
// nearest-neighbour resource-plan cache, or under coldPassWarm every call
// shares one, as the optimizers of one plan_scale pass over its query pool
// do: the first call fills it, and the later ones plan on a cache that
// answers every question without an insert. Under coldFresh each call
// plans a Query of its own over the same relations, as a one-shot request
// does.
func coldPlanner(tb testing.TB, planner core.PlannerKind, relations int, mode coldMode) func() {
	tb.Helper()
	q := coldQuery(tb, relations)
	cache := coldCache()
	return func() {
		if mode != coldPassWarm {
			cache = coldCache()
		}
		planned := q
		if mode == coldFresh {
			planned = &plan.Query{Schema: q.Schema, Rels: q.Rels}
		}
		if _, err := coldOptimizer(tb, planner, cache).Optimize(planned); err != nil {
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
// planning resources with rp over the served trained models.
func coldOptimizer(tb testing.TB, planner core.PlannerKind, rp resource.Planner) *core.Optimizer {
	tb.Helper()
	models, _ := benchFixtures(tb)
	o, err := core.New(cluster.Default(), core.Options{
		Models:     models,
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

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestHotPathAllocCeilings asserts hard allocation ceilings on the
// steady-state hot paths. Most ceilings carry slack over the measured
// numbers (`go test -bench HotPath -benchmem .`) so noise does not flake
// the gate, but an accidental per-candidate or per-operator allocation —
// the regressions the pooled state exists to prevent — blows through them.
// The warm re-plans and the in-place kernels are held exactly, so that one
// extra allocation per call fails too.
func TestHotPathAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds allocations; ceilings hold on plain builds only")
	}
	if testing.Short() {
		t.Skip("alloc gate is not meaningful under -short")
	}

	// Warm joint optimization of the 8-relation TPC-H All query: the full
	// Selinger DP with pooled state, arena plans and memoized costs. The
	// seed measured ~3162 allocs on this path; what is left is the winning
	// plan's two-allocation copy and the Decision around it (measured 6).
	// The ceiling is exact: a collection that empties the pools mid-run
	// costs one refill, well under one allocation per run once averaged over
	// 50 runs, while an allocation in the DP state's get, put or release —
	// once per candidate, or once per call — goes through it.
	o, q := hotPathOptimizer(t)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := o.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}); got > 6 {
		t.Errorf("warm Optimize(All) allocates %.0f/op, ceiling 6", got)
	}

	// Cold planning on a 100-table schema, the regime the join-graph index
	// serves: what is left is the new optimizer and its coster, the
	// resource-plan cache fills and the winning plan's two-allocation
	// copy (measured 37 and 35 over the trained models; 45 and 43 over the
	// paper's, 135 and 108 when these ceilings were first set, 180 and 536
	// when the randomized search built every tree on the heap and Clone
	// allocated per node, 203 and 736 before the index). The ceilings are those plus 15 %. A
	// per-candidate allocation in the enumeration kernel — thousands of
	// Selinger candidates, a node per random-tree merge or mutation —
	// would be off these by one or two orders of magnitude.
	if got := testing.AllocsPerRun(20, coldPlanner(t, core.Selinger, 12, coldEach)); got > 43 {
		t.Errorf("cold Selinger-12 allocates %.0f/op, ceiling 43", got)
	}
	if got := testing.AllocsPerRun(20, coldPlanner(t, core.FastRandomized, 30, coldEach)); got > 41 {
		t.Errorf("cold FastRandomized-30 allocates %.0f/op, ceiling 41", got)
	}

	// The largest query the Selinger DP plans, selinger.MaxRelations = 16
	// relations, over the full 2^16-slot table of its pooled state:
	// measured 37 allocations and about 8 KB per call, as Selinger-12. The
	// count's ceiling is that plus 15 %. The 256 KB table is reused, not
	// reallocated: the bytes' ceiling, 64 KB a call, leaves room for one
	// pool refill after a collection but not for a table per call.
	sel16 := coldPlanner(t, core.Selinger, 16, coldEach)
	if got := testing.AllocsPerRun(20, sel16); got > 43 {
		t.Errorf("cold Selinger-16 allocates %.0f/op, ceiling 43", got)
	}
	if got := bytesPerRun(20, sel16); got > 64<<10 {
		t.Errorf("cold Selinger-16 allocates %d B/op, ceiling 64 KB", got)
	}

	// The same cases with a new plan.Query per call, as a one-shot request
	// plans: a Query's first planning builds its planning form in the
	// pooled state's scratch, so the one allocation over the cases above is
	// the Query itself (measured 38 and 36, as before the form existed).
	// The ceilings are those plus 15 %.
	if got := testing.AllocsPerRun(20, coldPlanner(t, core.Selinger, 12, coldFresh)); got > 43 {
		t.Errorf("cold Selinger-12 on a fresh Query allocates %.0f/op, ceiling 43", got)
	}
	if got := testing.AllocsPerRun(20, coldPlanner(t, core.FastRandomized, 30, coldFresh)); got > 41 {
		t.Errorf("cold FastRandomized-30 on a fresh Query allocates %.0f/op, ceiling 41", got)
	}

	// The cold Selinger-12 query re-planned by new optimizers on the cache a
	// first plan filled, as in a plan_scale pass: the DP answers the repeats
	// from its pooled state, which must cost no allocation.
	// The same runs with the cache hidden behind a plain Planner, so that no
	// answer is reused, allocate exactly as much.
	passWarm := coldPlanner(t, core.Selinger, 12, coldPassWarm)
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
	// winner's copy (measured 6; 434 with heap-built trees). The ceiling is
	// exact, as for the warm Selinger DP: an allocation when the search state
	// is released goes through it.
	warmRandomized, warmQuery := coldOptimizer(t, core.FastRandomized, coldCache()), coldQuery(t, 30)
	if _, err := warmRandomized.Optimize(warmQuery); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := warmRandomized.Optimize(warmQuery); err != nil {
			t.Fatal(err)
		}
	}); got > 6 {
		t.Errorf("warm FastRandomized-30 Optimize allocates %.0f/op, ceiling 6", got)
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
	// a nearest-neighbour answer from a populated index is one lock and
	// one binary search, no allocation.
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

	// The same probe in the weighted-average mode blends the configurations
	// of every key within the threshold (3.1 and 3.2 here) in place.
	blended := &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.WeightedAverage, ThresholdGB: 0.1}
	for i := 0; i < 64; i++ {
		if _, err := blended.Plan(smj, float64(i)/10, cluster.Default()); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, n, err := blended.PlanCounted(smj, 3.105, cluster.Default()); err != nil || n != 0 {
			t.Fatalf("warm blended hit: evaluations=%d err=%v", n, err)
		}
	}); got > 0 {
		t.Errorf("warm weighted-average cache hit allocates %.0f/op, ceiling 0", got)
	}

	// A miss into an index with spare capacity: the climb and the insert
	// allocate nothing; the index's arrays allocate only when an append
	// grows them (here 40 entries and 21 misses fit in the capacity the
	// 33rd insert doubled to).
	filling := &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.Exact}
	for i := 0; i < 40; i++ {
		if _, err := filling.Plan(smj, float64(i), cluster.Default()); err != nil {
			t.Fatal(err)
		}
	}
	nextKey := 100.0
	if got := testing.AllocsPerRun(20, func() {
		nextKey++
		if _, n, err := filling.PlanCounted(smj, nextKey, cluster.Default()); err != nil || n == 0 {
			t.Fatalf("cache miss: evaluations=%d err=%v", n, err)
		}
	}); got > 0 {
		t.Errorf("cache miss into spare capacity allocates %.0f/op, ceiling 0", got)
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

	// An explain row's relation list is one slice sized from the relation
	// set's popcount, filled with the schema's own names.
	if got := testing.AllocsPerRun(50, func() {
		if len(d.Plan.Relations()) != len(q.Rels) {
			t.Fatal("the winning plan does not cover the query")
		}
	}); got > 1 {
		t.Errorf("Node.Relations allocates %.0f/op, ceiling 1", got)
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

	// The same memo hit over loopback TCP through the shipping serve loop,
	// counted on both ends: the client's raw write and http.ReadResponse,
	// the server's connection loop and the handler stack above (measured
	// 14; 38 through net/http.Server). The loop reuses its request,
	// header map, context and timer per connection, so one more allocation
	// per request goes through the ceiling.
	if got := testing.AllocsPerRun(200, loopbackOptimize(t, `{"query":"Q12"}`)); got > 14 {
		t.Errorf("memo-hit /v1/optimize over loopback allocates %.0f/round trip, ceiling 14", got)
	}

	// One forwarded /v1/submit between two in-process fleet nodes, counted
	// across both: the entry node's routing and peer transport, the owner's
	// connection loop and arbiter, the relay (measured 35, with the test's
	// own request and recorder; 36 while the shared cluster copied each
	// outcome, 38 over the paper's models, 45 when each
	// admission boxed its heap entries and rebuilt its completion's record,
	// 67 when the transport read the answer with http.ReadResponse, 93 when the owner also served through
	// net/http.Server, 176 when the hop also went through net/http's
	// client). The ceiling is that plus 15 %: a parsed header map, a
	// request object, goroutine or timer per hop goes through it.
	forward := newBenchFleet(t)
	forward(true, "t/default", "/v1/submit", `{"query":"Q12"}`) // dial
	if got := testing.AllocsPerRun(50, func() {
		forward(true, "t/default", "/v1/submit", `{"query":"Q12"}`)
	}); got > 41 {
		t.Errorf("forwarded /v1/submit allocates %.0f/op across both nodes, ceiling 41", got)
	}

	// Warm /v1/submit and /v1/cloud/submit in the repository benchmark's
	// body shape, through the handler stack: the canonical scanner, an
	// admission whose plan and simulated execution the memo answers, the
	// fixed-shape encoder and, on the shared cluster, the feedback
	// observation of a completion, plus the test's own request and
	// recorder, the mux and the metrics (measured 28 and 28; 29 and 28
	// while the shared cluster copied each outcome, 30 and 28 over the
	// paper's models, 37 and 34 with
	// boxed pool heap entries and each completion's record rebuilt, 50 and
	// 44 with encoding/json decoding the body and encoding the outcome, a
	// fresh simulation per admission and the completion's plan signature
	// grown in a strings.Builder). The ceilings are exact: a reflective
	// decode or encode, or a simulation per admission, goes through them.
	submitSrv := newBenchServer(t)
	for _, c := range []struct {
		path, body string
		ceiling    float64
	}{
		{"/v1/submit", `{"tenant":"default","query":"Q12","policy":"reoptimize"}`, 28},
		{"/v1/cloud/submit", `{"tenant":"default","query":"Q12","recovery":"reoptimize"}`, 28},
	} {
		for i := 0; i < 20; i++ {
			serveBody(t, submitSrv, c.path, c.body)
		}
		if got := testing.AllocsPerRun(50, func() { serveBody(t, submitSrv, c.path, c.body) }); got > c.ceiling {
			t.Errorf("warm %s allocates %.0f/op, ceiling %.0f", c.path, got, c.ceiling)
		}
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

	// GET /v1/model on the same server, 7 % of the feedback_rw stream: the
	// drift detector's stats over its three full 64-sample windows (a
	// sorted copy of each in one reused buffer) and the fixed-shape
	// encoder, plus the test's own request and recorder, the mux and the
	// metrics (measured 26, as with the quantile selection it replaced).
	// The ceiling is the measurement plus 15 %.
	serveModel := func() {
		rec := httptest.NewRecorder()
		fb.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/model", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/model: status = %d, body %s", rec.Code, rec.Body)
		}
	}
	serveModel()
	if got := testing.AllocsPerRun(50, serveModel); got > 30 {
		t.Errorf("GET /v1/model allocates %.0f/op, ceiling 30", got)
	}

	// The /v1/history read: ten minute buckets at step 60 from the day-scale
	// store is the row slice alone, each row's quantiles read under the
	// store's lock off its one source's sketch (measured 1; 2 when the
	// rows were buckets carrying one slab of merged sketch windows, 11
	// with a window grown per bucket, 301 with the map-based sketch and
	// the bucket-map walk).
	st := benchHistoryQueryStore(t)
	if got := testing.AllocsPerRun(50, func() {
		if rows, err := st.Query("bench.series.00", 6000, 6600, 60); err != nil || len(rows) != 10 || rows[3].P50 > rows[3].P99 {
			t.Fatalf("ten-bucket query: %d rows, err=%v", len(rows), err)
		}
	}); got > 1 {
		t.Errorf("ten-bucket Store.Query allocates %.0f/op, ceiling 1", got)
	}

	// Folding one sketch into another whose window already covers it, as a
	// range query folds rollup buckets, is an in-place add.
	var into, from history.Sketch
	for i := 1; i < 100; i++ {
		into.Add(float64(i) / 7)
		from.Add(float64(i) / 5)
	}
	into.Merge(&from)
	if got := testing.AllocsPerRun(50, func() { into.Merge(&from) }); got > 0 {
		t.Errorf("warm Sketch.Merge allocates %.0f/op, ceiling 0", got)
	}

	// The same read through the handler, in the repository benchmark's
	// shape: query parameters, the query and the fixed-shape encoder, plus
	// the test's own request and recorder, the mux and the metrics
	// (measured 27; 28 with the slab query, 39 with the HistoryResponse
	// rows built and encoded by encoding/json and a sketch window grown per
	// bucket). The ceiling is the measurement plus 15 %.
	hs := newHistoryBenchServer(t)
	serveHistoryGET(t, hs)
	if got := testing.AllocsPerRun(50, func() {
		serveHistoryGET(t, hs)
	}); got > 31 {
		t.Errorf("ten-bucket GET /v1/history allocates %.0f/op, ceiling 31", got)
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
	// the encoded outcome (measured 26 and 26; 27 for /v1/submit while the
	// shared cluster copied each outcome, 29 and 27 over the paper's models, 46 and 44 with boxed pool
	// heap entries, a fresh per-Advance release slice and each
	// completion's record rebuilt, 53 and 52 with a math/rand source per
	// draw and the encoder's indent pass). The ceilings are the
	// measurements plus 15 %.
	sub, err := server.New(server.Config{CloudSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path    string
		ceiling float64
	}{{"/v1/submit", 30}, {"/v1/cloud/submit", 30}} {
		serveBody(t, sub, c.path, `{"query":"Q12"}`)
		if got := testing.AllocsPerRun(50, func() {
			serveBody(t, sub, c.path, `{"query":"Q12"}`)
		}); got > c.ceiling {
			t.Errorf("local %s allocates %.0f/op, ceiling %.0f", c.path, got, c.ceiling)
		}
	}

	// GET /v1/arbiter/stats, a tenth of the submit_mix stream, with the
	// test's own request and recorder, the mux and the metrics: the engine's
	// counts and gauges read as scalars and the fixed-shape encoder
	// (measured 20; 24 while the shared cluster built the engine's
	// per-class and per-tenant stats slices to read four scalars from
	// them). The ceiling is exact: a slice built per request goes through it.
	statsSrv := newSubmitServer(t)
	for i := 0; i < 20; i++ {
		serveBody(t, statsSrv, "/v1/submit", `{"tenant":"etl","query":"Q12"}`)
	}
	serveGET := func() {
		rec := httptest.NewRecorder()
		statsSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/arbiter/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/arbiter/stats: status = %d, body %s", rec.Code, rec.Body)
		}
	}
	serveGET()
	if got := testing.AllocsPerRun(50, serveGET); got > 20 {
		t.Errorf("GET /v1/arbiter/stats allocates %.0f/op, ceiling 20", got)
	}

	// Warm SubmitWait on the server's own arbiters, below HTTP: the shared
	// cluster with its feedback observer and the faulty market, over the
	// repository benchmark's tenants, the four queries and every policy
	// and recovery. What is left is the submission and the admitted
	// outcome (measured 2 and 2; 3 and 2 while the shared cluster copied
	// each outcome, 3 and 3 over the paper's models, 15 and 12
	// when the pool's heap boxed every allocation, Advance built a fresh
	// release slice, the event loop held its running gangs and stashed
	// heads by pointer, Degrade clamped and simulated afresh and each
	// completion rebuilt its signature and operator samples). A fresh
	// server per side makes the count deterministic, so the ceilings are
	// exact: a heap object per event goes through them.
	for _, c := range []struct {
		name    string
		ceiling float64
		submit  func(s *server.Server, i int) error
	}{
		{"shared-cluster", 2, func(s *server.Server, i int) error {
			_, err := s.Arbiter().SubmitWait(submitTenants[i%3], submitQueries[i%4], submitPolicies[i/12%4])
			return err
		}},
		{"market", 2, func(s *server.Server, i int) error {
			_, err := s.Cloud().SubmitWait(submitTenants[i%3], submitQueries[i%4], submitRecoveries[i/12%4])
			return err
		}},
	} {
		s := newSubmitServer(t)
		i := 0
		submit := func() {
			i++
			if err := c.submit(s, i); err != nil && !errors.Is(err, cloud.ErrRejected) {
				t.Fatal(err)
			}
		}
		for ; i < 2000; submit() {
		}
		if got := testing.AllocsPerRun(2000, submit); got > c.ceiling {
			t.Errorf("warm %s SubmitWait allocates %.0f/op, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// The repository benchmark's submit_mix stream shape, cycled: three
// weighted tenants, the four TPC-H queries, and policies and recoveries
// 2:1:1.
var (
	submitTenants    = []string{"etl", "adhoc", "batch"}
	submitQueries    = []string{workload.Q12, workload.Q3, workload.Q2, workload.All}
	submitPolicies   = []scheduler.Policy{scheduler.Reoptimize, scheduler.Reoptimize, scheduler.Wait, scheduler.Degrade}
	submitRecoveries = []cloud.Recovery{cloud.RecoverReoptimize, cloud.RecoverReoptimize, cloud.RecoverOnDemand, cloud.RecoverDegrade}
)

// newSubmitServer is a server configured as the submit_mix benchmark's:
// its three tenants on both pools and seeded spot faults.
func newSubmitServer(t testing.TB) *server.Server {
	t.Helper()
	cfg := server.Config{CloudSeed: 7}
	for i, name := range submitTenants {
		cfg.ArbiterTenants = append(cfg.ArbiterTenants, cloud.TenantConfig{Name: name, Weight: float64(3 - i)})
		cfg.CloudTenants = append(cfg.CloudTenants, cloud.TenantConfig{Name: name, Weight: float64(3 - i)})
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
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

func benchmarkCold(planner core.PlannerKind, relations int, mode coldMode) func(b *testing.B) {
	return func(b *testing.B) {
		run := coldPlanner(b, planner, relations, mode)
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
// -passwarm cases, over one cache kept across runs; in the -fresh cases
// each run plans a new plan.Query as well.
func BenchmarkHotPathCold(b *testing.B) {
	for _, c := range coldCases {
		b.Run(c.name, benchmarkCold(c.planner, c.relations, coldEach))
	}
	for _, c := range coldCases {
		b.Run(c.name+"-passwarm", benchmarkCold(c.planner, c.relations, coldPassWarm))
	}
	for _, c := range coldCases {
		b.Run(c.name+"-fresh", benchmarkCold(c.planner, c.relations, coldFresh))
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
	f, err := q.Form(nil)
	if err != nil {
		b.Fatal(err)
	}
	var ts optimizer.TreeScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.RandomTree(rng, f); err != nil {
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

// BenchmarkMicroHillClimb times one resource-planning call: Algorithm 1
// from the cluster minimum on the served SMJ model.
func BenchmarkMicroHillClimb(b *testing.B) {
	cond := cluster.Default()
	models, _ := benchFixtures(b)
	smj, _ := models.For(plan.SMJ)
	hc := &resource.HillClimb{}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hc.Plan(smj, rng.Float64()*8, cond); err != nil {
			b.Fatal(err)
		}
	}
}

// loopbackOptimize serves a bench server on a loopback port and returns
// one round trip of body to /v1/optimize over one kept-alive connection:
// the raw request write and http.ReadResponse of a 200. The first trip,
// made here, files the answer in the response memo.
func loopbackOptimize(t *testing.T, body string) func() {
	t.Helper()
	s := newBenchServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	addrc, done := make(chan string, 1), make(chan error, 1)
	go func() { done <- s.ServeHandler(ctx, "127.0.0.1:0", nil, func(a string) { addrc <- a }) }()
	c, err := net.Dial("tcp", <-addrc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	req := []byte("POST /v1/optimize HTTP/1.1\r\nHost: raqo\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)
	br := bufio.NewReader(c)
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/optimize: HTTP %d, %v", resp.StatusCode, err)
		}
	}
	roundTrip()
	return roundTrip
}
