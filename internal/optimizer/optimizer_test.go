package optimizer_test

import (
	"math/rand"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/optimizertest"
	"raqo/internal/plan"
)

func q3(t *testing.T) *plan.Query {
	t.Helper()
	s := catalog.TPCH(10)
	q, err := plan.NewQuery(s, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func qAll(t *testing.T) *plan.Query {
	t.Helper()
	s := catalog.TPCH(10)
	q, err := plan.NewQuery(s, s.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRandomTreeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := qAll(t)
	var ts optimizer.TreeScratch
	for i := 0; i < 50; i++ {
		tree, err := drawTree(&ts, rng, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(q); err != nil {
			t.Fatalf("iteration %d: invalid tree: %v\n%s", i, err, tree)
		}
	}
}

func TestRandomTreeDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := qAll(t)
	var ts optimizer.TreeScratch
	sigs := map[string]bool{}
	for i := 0; i < 30; i++ {
		tree, err := drawTree(&ts, rng, q)
		if err != nil {
			t.Fatal(err)
		}
		sigs[tree.Signature()] = true
	}
	if len(sigs) < 10 {
		t.Errorf("only %d distinct trees in 30 draws", len(sigs))
	}
}

func TestMutatePreservesValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := qAll(t)
	var ts optimizer.TreeScratch
	tree, err := drawTree(&ts, rng, q)
	if err != nil {
		t.Fatal(err)
	}
	mutated, changed := 0, 0
	for i := 0; i < 300; i++ {
		mut, ok := ts.Mutate(rng, q.Schema, tree)
		if !ok {
			continue
		}
		mutated++
		if err := mut.Validate(q); err != nil {
			t.Fatalf("invalid mutant: %v\n%s", err, mut)
		}
		if mut.Signature() != tree.Signature() {
			changed++
		}
		// The original is untouched.
		if err := tree.Validate(q); err != nil {
			t.Fatalf("mutation corrupted original: %v", err)
		}
		tree = mut // random walk
	}
	if mutated < 100 {
		t.Errorf("only %d/300 mutations applied", mutated)
	}
	if changed < 50 {
		t.Errorf("only %d mutations changed the plan", changed)
	}
}

func TestMutateReachesOtherAlgos(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := q3(t)
	tree, err := plan.LeftDeep(q.Schema, plan.SMJ, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	var ts optimizer.TreeScratch
	sawBHJ := false
	for i := 0; i < 200 && !sawBHJ; i++ {
		mut, ok := ts.Mutate(rng, q.Schema, tree)
		if !ok {
			continue
		}
		for _, j := range mut.Joins() {
			if j.Algo == plan.BHJ {
				sawBHJ = true
			}
		}
		tree = mut
	}
	if !sawBHJ {
		t.Error("mutations never flipped the join algorithm")
	}
}

func TestMutateScanOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := catalog.TPCH(1)
	scan, err := plan.NewScan(s, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := new(optimizer.TreeScratch).Mutate(rng, s, scan); ok {
		t.Error("mutating a scan should be inapplicable")
	}
}

func TestPlanCostSums(t *testing.T) {
	q := q3(t)
	tree, err := plan.LeftDeep(q.Schema, plan.SMJ, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	c := &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}
	oc, err := optimizer.PlanCost(c, tree)
	if err != nil {
		t.Fatal(err)
	}
	if c.Calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", c.Calls.Load())
	}
	if oc.Seconds <= 0 || oc.Money <= 0 {
		t.Errorf("cost = %+v", oc)
	}
	// Every join got annotated.
	for _, j := range tree.Joins() {
		if j.Res.IsZero() {
			t.Error("join left unannotated")
		}
	}
	// Error propagation.
	if _, err := optimizer.PlanCost(optimizertest.FailingCoster{}, tree); err == nil {
		t.Error("failing coster not propagated")
	}
}

func TestOpCostAdd(t *testing.T) {
	a := optimizer.OpCost{Seconds: 1, Money: 2}
	b := optimizer.OpCost{Seconds: 3, Money: 4}
	got := a.Add(b)
	if got.Seconds != 4 || got.Money != 6 {
		t.Errorf("Add = %+v", got)
	}
}
