package core

import (
	"math/rand"
	"strings"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

func batchQueries(t *testing.T) []*plan.Query {
	t.Helper()
	queries := make([]*plan.Query, 0, len(workload.QueryNames))
	for _, name := range workload.QueryNames {
		queries = append(queries, q(t, name))
	}
	return queries
}

// TestOptimizeBatchMatchesSequential: the batch API with a parallel worker
// pool must produce exactly the plans and metrics of one-at-a-time
// Optimize calls — including at the clamps, where 0 and negative
// parallelism select NumCPU and more than len(queries) shrinks the pool.
func TestOptimizeBatchMatchesSequential(t *testing.T) {
	queries := batchQueries(t)

	seq, err := New(cluster.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Decision, len(queries))
	for i, query := range queries {
		d, err := seq.Optimize(query)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}

	for _, parallelism := range []int{0, -1, 1, 2, 4, 100} {
		o, err := New(cluster.Default(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.OptimizeBatch(queries, parallelism)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		for i := range queries {
			if g, w := got[i].Plan.SignatureWithResources(), want[i].Plan.SignatureWithResources(); g != w {
				t.Errorf("parallelism=%d query %d: plan mismatch\nbatch:      %s\nsequential: %s",
					parallelism, i, g, w)
			}
			if got[i].PlansConsidered != want[i].PlansConsidered {
				t.Errorf("parallelism=%d query %d: considered %d != %d",
					parallelism, i, got[i].PlansConsidered, want[i].PlansConsidered)
			}
			if got[i].ResourceIterations != want[i].ResourceIterations {
				t.Errorf("parallelism=%d query %d: resource iterations %d != %d",
					parallelism, i, got[i].ResourceIterations, want[i].ResourceIterations)
			}
		}
	}
}

// TestOptimizeBatchSharedCache: a shared resource-plan cache under a
// concurrent batch must stay race-free and produce valid plans (exact-mode
// lookups are confluent, so plan quality is unaffected by arrival order).
func TestOptimizeBatchSharedCache(t *testing.T) {
	queries := batchQueries(t)
	cache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.Exact}
	o, err := New(cluster.Default(), Options{Resource: cache})
	if err != nil {
		t.Fatal(err)
	}
	decisions, err := o.OptimizeBatch(queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decisions {
		for _, j := range d.Plan.Joins() {
			if j.Res.IsZero() {
				t.Errorf("query %d: unannotated join", i)
			}
		}
	}
	if cache.Hits() == 0 {
		t.Error("batch over TPC-H should share cached resource plans")
	}
}

// TestOptimizeBatchErrors: failed queries surface per-index errors while
// the rest of the batch still completes.
func TestOptimizeBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big, err := catalog.Random(rng, 23, catalog.DefaultRandomConfig()) // over the Selinger DP limit
	if err != nil {
		t.Fatal(err)
	}
	overLimit, err := plan.NewQuery(big, big.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(cluster.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []*plan.Query{q(t, workload.Q12), overLimit, q(t, workload.Q3)}
	decisions, err := o.OptimizeBatch(queries, 2)
	if err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("err = %v, want query 1 failure", err)
	}
	if decisions[0] == nil || decisions[2] == nil {
		t.Error("healthy queries should still get decisions")
	}
	if decisions[1] != nil {
		t.Error("failed query should have a nil decision")
	}

	if ds, err := o.OptimizeBatch(nil, 4); ds != nil || err != nil {
		t.Errorf("empty batch = %v, %v", ds, err)
	}
}

// TestMemoizeCosts: with the operator-cost memo on, plans are unchanged,
// repeated sub-problems hit the memo, and a repeated query skips resource
// planning entirely.
func TestMemoizeCosts(t *testing.T) {
	query := q(t, workload.All)
	plain, err := New(cluster.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}

	o, err := New(cluster.Default(), Options{MemoizeCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Plan.SignatureWithResources(), want.Plan.SignatureWithResources(); g != w {
		t.Errorf("memoized plan differs:\nmemo:  %s\nplain: %s", g, w)
	}
	if got.PlansConsidered != want.PlansConsidered {
		t.Errorf("memo changed PlansConsidered: %d != %d", got.PlansConsidered, want.PlansConsidered)
	}
	if o.Memo() == nil || o.Memo().Hits() == 0 {
		t.Error("planning All should hit the memo (repeated sub-plan sizes)")
	}
	if got.ResourceIterations >= want.ResourceIterations {
		t.Errorf("memo should cut resource iterations: %d >= %d",
			got.ResourceIterations, want.ResourceIterations)
	}

	// Same query again: every operator costing is memoized now.
	again, err := o.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	if again.ResourceIterations != 0 {
		t.Errorf("fully memoized re-run still did %d resource iterations", again.ResourceIterations)
	}
	if g := again.Plan.SignatureWithResources(); g != want.Plan.SignatureWithResources() {
		t.Error("memoized re-run changed the plan")
	}
}

// TestDerivedSeedsReproducible: randomized planning through the core API
// must reproduce per query — across calls and across Optimizer instances —
// and distinct queries must draw distinct seeds.
func TestDerivedSeedsReproducible(t *testing.T) {
	opts := Options{Planner: FastRandomized, Seed: 11}
	a, err := New(cluster.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cluster.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, workload.All)
	d1, err := a.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := b.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Plan.Signature() != d2.Plan.Signature() || d1.Plan.Signature() != d3.Plan.Signature() {
		t.Error("same seed + same query should reproduce the same randomized plan")
	}
	if a.seedFor(q(t, workload.Q3)) == a.seedFor(q(t, workload.Q12)) {
		t.Error("distinct queries should derive distinct seeds")
	}
}
