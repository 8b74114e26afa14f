package core

import (
	"testing"

	"raqo/internal/cluster"
	"raqo/internal/workload"
)

// TestMemoizeCosts: with the operator-cost memo on, plans are unchanged,
// repeated sub-problems hit the memo, and a repeated query skips resource
// planning entirely.
func TestMemoizeCosts(t *testing.T) {
	query := q(t, workload.All)
	plain, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}

	o, err := New(cluster.Default(), Options{Models: trainedModels(t), MemoizeCosts: true})
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
	opts := Options{Models: trainedModels(t), Planner: FastRandomized, Seed: 11}
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
