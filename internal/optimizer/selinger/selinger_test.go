package selinger

import (
	"math/rand"
	"strings"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/optimizer/optimizertest"
	"raqo/internal/plan"
)

func coster() *optimizertest.SizeCoster {
	return &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}
}

func query(t *testing.T, s *catalog.Schema, rels ...string) *plan.Query {
	t.Helper()
	q, err := plan.NewQuery(s, rels...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPlanSingleRelation(t *testing.T) {
	s := catalog.TPCH(1)
	p := &Planner{Coster: coster()}
	res, err := p.Plan(query(t, s, catalog.Orders))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsScan() {
		t.Error("single-relation plan should be a scan")
	}
	if res.Cost.Seconds != 0 {
		t.Errorf("scan cost = %v", res.Cost.Seconds)
	}
}

func TestPlanMatchesExhaustive(t *testing.T) {
	s := catalog.TPCH(10)
	queries := [][]string{
		{catalog.Lineitem, catalog.Orders},
		{catalog.Lineitem, catalog.Orders, catalog.Customer},
		{catalog.Customer, catalog.Orders, catalog.Nation, catalog.Region},
		{catalog.Lineitem, catalog.Orders, catalog.Customer, catalog.Nation, catalog.Region},
		{catalog.Part, catalog.PartSupp, catalog.Supplier, catalog.Nation, catalog.Lineitem},
	}
	for _, rels := range queries {
		q := query(t, s, rels...)
		dp := &Planner{Coster: coster()}
		got, err := dp.Plan(q)
		if err != nil {
			t.Fatalf("%v: %v", rels, err)
		}
		_, want, err := optimizertest.Optimum(coster(), q)
		if err != nil {
			t.Fatalf("%v: optimum: %v", rels, err)
		}
		// The DP searches left-deep trees only, so its cost is the left-deep
		// optimum's.
		if diff := got.Cost.Seconds - want.Cost.Seconds; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%v: DP cost %v != left-deep optimum %v\nDP:\n%s\nOptimum:\n%s",
				rels, got.Cost.Seconds, want.Cost.Seconds, got.Plan, want.Plan)
		}
		if err := got.Plan.Validate(q); err != nil {
			t.Errorf("%v: invalid plan: %v", rels, err)
		}
	}
}

func TestPlanAllTPCH(t *testing.T) {
	s := catalog.TPCH(10)
	q := query(t, s, s.Tables()...)
	p := &Planner{Coster: coster()}
	res, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Joins()) != 7 {
		t.Errorf("joins = %d, want 7", len(res.Plan.Joins()))
	}
	if res.PlansConsidered < 100 {
		t.Errorf("considered = %d, suspiciously few", res.PlansConsidered)
	}
	// Left-deep: right child of every join is a scan.
	for _, j := range res.Plan.Joins() {
		if !j.Right.IsScan() && !j.Left.IsScan() {
			t.Errorf("bushy join found in left-deep plan:\n%s", res.Plan)
		}
	}
}

func TestPlanOnRandomSchemas(t *testing.T) {
	cfg := catalog.DefaultRandomConfig()
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := catalog.Random(rng, 10, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := query(t, s, s.Tables()...)
		p := &Planner{Coster: coster()}
		res, err := p.Plan(q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Plan.Validate(q); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	s := catalog.TPCH(1)
	q := query(t, s, catalog.Lineitem, catalog.Orders)
	p := &Planner{}
	if _, err := p.Plan(q); err == nil {
		t.Error("nil coster accepted")
	}
	p = &Planner{Coster: optimizertest.FailingCoster{}}
	if _, err := p.Plan(q); err == nil || !strings.Contains(err.Error(), "no feasible plan") {
		t.Errorf("failing coster: err = %v", err)
	}
	// Too many relations.
	rng := rand.New(rand.NewSource(1))
	big, err := catalog.Random(rng, MaxRelations+1, catalog.DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	qb := query(t, big, big.Tables()...)
	p = &Planner{Coster: coster()}
	if _, err := p.Plan(qb); err == nil {
		t.Error("oversized query accepted")
	}
}

// TestPlanRefusesUnsortedQuery: the DP folds selectivities over a mask's
// members in query order, which is the index's rank order only when the
// relations are name-sorted and unique, as NewQuery leaves them; a query
// built by hand otherwise is refused, not planned with other statistics.
func TestPlanRefusesUnsortedQuery(t *testing.T) {
	s := catalog.TPCH(1)
	for _, rels := range [][]string{
		{catalog.Orders, catalog.Lineitem},
		{catalog.Lineitem, catalog.Orders, catalog.Orders},
	} {
		_, err := (&Planner{Coster: coster()}).Plan(&plan.Query{Schema: s, Rels: rels})
		if err == nil || !strings.Contains(err.Error(), "not sorted and unique") {
			t.Errorf("%v: error %v, want a refusal", rels, err)
		}
	}
}
