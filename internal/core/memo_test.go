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

// TestCostMemoEvictsOldestIdleContexts: past MaxMemoEntries the memo drops
// whole contexts in the order they were first acquired, and never one a
// call still holds, whatever its age.
func TestCostMemoEvictsOldestIdleContexts(t *testing.T) {
	const perCtx = 64
	m := NewCostMemo()
	fill := func(p *memoContext) {
		for i := uint64(0); i < perCtx; i++ {
			m.do(memoKey{model: "smj", bits: i, ctx: p}, func() memoEntry { return memoEntry{} })
		}
	}
	// kept counts p's entries still in the memo: all or none.
	kept := func(p *memoContext) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		n := 0
		for i := uint64(0); i < perCtx; i++ {
			if _, ok := m.entries[memoKey{model: "smj", bits: i, ctx: p}]; ok {
				n++
			}
		}
		if n != 0 && n != perCtx {
			t.Fatalf("a context keeps %d of its %d entries", n, perCtx)
		}
		return n == perCtx
	}
	busy := m.acquire(costerContext{fixed: -1}) // a call that never ends here
	fill(busy)
	var idle []*memoContext
	for i := 0; i < 2*MaxMemoEntries/perCtx; i++ {
		p := m.acquire(costerContext{fixed: i})
		fill(p)
		m.release(p)
		idle = append(idle, p)
		if n := m.Size(); n > MaxMemoEntries {
			t.Fatalf("after %d contexts the memo holds %d entries, bound %d", i+1, n, MaxMemoEntries)
		}
	}
	if !kept(busy) {
		t.Fatal("the oldest context was evicted while a call held it")
	}
	// The evicted idle contexts are the oldest ones.
	gone := 0
	for gone < len(idle) && !kept(idle[gone]) {
		gone++
	}
	if gone == 0 {
		t.Fatal("twice the bound in entries and nothing was evicted")
	}
	for i, p := range idle[gone:] {
		if !kept(p) {
			t.Fatalf("idle context %d was evicted, but context %d, older, was kept", gone+i, gone)
		}
	}
	m.release(busy)
	for i := len(idle); kept(busy); i++ {
		if i > 3*MaxMemoEntries/perCtx {
			t.Fatal("a released context outlived newer ones past the bound")
		}
		p := m.acquire(costerContext{fixed: i})
		fill(p)
		m.release(p)
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
