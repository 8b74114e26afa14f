package core

import (
	"sync"
	"testing"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/workload"
)

func TestSetModelsSwapsLiveSet(t *testing.T) {
	opt, err := New(cluster.Default(), Options{Models: trainedModels(t), MemoizeCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Models() == nil {
		t.Fatal("no seed models")
	}
	query := q(t, workload.Q12)
	before, err := opt.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Memo().Size() == 0 {
		t.Fatal("setup: memo empty after planning")
	}

	// Swap in a flat model: every operator costs the same, so the decision's
	// modeled time must change, proving planning reads the swapped set.
	flat := cost.NewModels()
	for _, a := range plan.Algos {
		flat.Set(a, cost.ModelFunc{ModelName: "flat-" + a.String(), Fn: func(ss, cs, nc float64) float64 { return 7 }})
	}
	if err := opt.SetModels(flat); err != nil {
		t.Fatal(err)
	}
	if opt.Memo().Size() != 0 {
		t.Error("SetModels did not reset the cost memo")
	}
	after, err := opt.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	if after.Time != 7 { // Q12 is a single join
		t.Errorf("post-swap modeled time = %v, want 7 under the flat model", after.Time)
	}
	if before.Time == after.Time {
		t.Error("swap had no effect on planning")
	}

	if err := opt.SetModels(nil); err == nil {
		t.Error("nil model set accepted")
	}
}

// TestSetModelsConcurrentWithOptimize races model swaps against planning
// calls; run with -race. Every plan must be priced by a complete set.
func TestSetModelsConcurrentWithOptimize(t *testing.T) {
	opt, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, workload.Q3)
	sets := []*cost.Models{cost.PaperModels(), cost.PaperModelsUnfloored()}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := opt.SetModels(sets[i%len(sets)]); err != nil {
				t.Errorf("SetModels: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if _, err := opt.Optimize(query); err != nil {
				t.Errorf("Optimize during swap: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
