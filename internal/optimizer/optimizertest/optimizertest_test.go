package optimizertest_test

import (
	"fmt"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/optimizer/optimizertest"
	"raqo/internal/plan"
)

// shapeQuery is a query over n tables whose join graph is a chain
// (t0–t1–…) or a clique.
func shapeQuery(t *testing.T, n int, clique bool) *plan.Query {
	t.Helper()
	s := catalog.NewSchema()
	rels := make([]string, n)
	for i := range rels {
		rels[i] = fmt.Sprintf("t%d", i)
		if err := s.AddTable(catalog.Table{Name: rels[i], Rows: int64(1000 * (i + 1)), RowBytes: 100}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i; j++ {
			if clique || j == i-1 {
				if err := s.AddJoin(rels[j], rels[i], 0.01); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	q, err := plan.NewQuery(s, rels...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestOptimumCounts holds Optimum's enumeration to closed forms, with no
// second enumerator: over n relations it prices n! left-deep and
// (2n−2)!/(n−1)! bushy trees on a clique, 2^(n−1) and
// 2^(n−1)·Catalan(n−1) on a chain, each times 2^(n−1) algorithm choices.
func TestOptimumCounts(t *testing.T) {
	fact := func(k int) int {
		f := 1
		for i := 2; i <= k; i++ {
			f *= i
		}
		return f
	}
	catalan := func(k int) int { return fact(2*k) / (fact(k+1) * fact(k)) }
	for n := 2; n <= optimizertest.MaxOptimumRelations; n++ {
		algos := 1 << (n - 1)
		for _, c := range []struct {
			clique          bool
			leftDeep, bushy int
		}{
			{true, fact(n), fact(2*n-2) / fact(n-1)},
			{false, 1 << (n - 1), (1 << (n - 1)) * catalan(n-1)},
		} {
			q := shapeQuery(t, n, c.clique)
			coster := &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}
			bushy, leftDeep, err := optimizertest.Optimum(coster, q)
			if err != nil {
				t.Fatal(err)
			}
			if bushy.PlansConsidered != c.bushy*algos || leftDeep.PlansConsidered != c.leftDeep*algos {
				t.Errorf("n=%d clique=%t: %d bushy and %d left-deep trees, want %d and %d",
					n, c.clique, bushy.PlansConsidered, leftDeep.PlansConsidered, c.bushy*algos, c.leftDeep*algos)
			}
			if bushy.Cost.Seconds > leftDeep.Cost.Seconds {
				t.Errorf("n=%d clique=%t: bushy optimum %v above the left-deep one %v", n, c.clique, bushy.Cost.Seconds, leftDeep.Cost.Seconds)
			}
			for _, j := range leftDeep.Plan.Joins() {
				if !j.Right.IsScan() {
					t.Errorf("n=%d clique=%t: left-deep optimum has a join right input\n%s", n, c.clique, leftDeep.Plan)
				}
			}
			if err := bushy.Plan.Validate(q); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestOptimumLimit: a query past MaxOptimumRelations is refused.
func TestOptimumLimit(t *testing.T) {
	q := shapeQuery(t, optimizertest.MaxOptimumRelations+1, false)
	if _, _, err := optimizertest.Optimum(&optimizertest.SizeCoster{}, q); err == nil {
		t.Errorf("%d-relation query accepted", len(q.Rels))
	}
}
