package randomized

import (
	"math/rand"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cost"
	"raqo/internal/optimizer"
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

func TestPlanValidAndNearOptimal(t *testing.T) {
	s := catalog.TPCH(10)
	q := query(t, s, catalog.Lineitem, catalog.Orders, catalog.Customer, catalog.Nation, catalog.Region)
	p := &Planner{Coster: coster(), Seed: 7, Opts: Options{Iterations: 30}}
	got, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Plan.Validate(q); err != nil {
		t.Fatal(err)
	}
	want, _, err := optimizertest.Optimum(coster(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Randomized search explores bushy trees, so it is held to the bushy
	// optimum; it is approximate, so allow 40%.
	if got.Cost.Seconds > want.Cost.Seconds*1.4 {
		t.Errorf("randomized cost %v vs bushy optimum %v (>1.4x)", got.Cost.Seconds, want.Cost.Seconds)
	}
	if got.PlansConsidered < 10 {
		t.Errorf("considered = %d", got.PlansConsidered)
	}
}

func TestParetoArchiveIsNonDominated(t *testing.T) {
	s := catalog.TPCH(10)
	q := query(t, s, s.Tables()...)
	p := &Planner{Coster: coster(), Seed: 11}
	archive, considered, err := p.PlanPareto(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(archive) == 0 || considered == 0 {
		t.Fatal("empty archive")
	}
	for i, a := range archive {
		for j, b := range archive {
			if i == j {
				continue
			}
			av := cost.Vector{Time: a.Cost.Seconds, Money: a.Cost.Money}
			bv := cost.Vector{Time: b.Cost.Seconds, Money: b.Cost.Money}
			if av.Dominates(bv) {
				t.Errorf("archive entry %d dominates %d", i, j)
			}
		}
		if err := a.Plan.Validate(q); err != nil {
			t.Errorf("entry %d invalid: %v", i, err)
		}
	}
}

func TestPlanDeterministicWithSeed(t *testing.T) {
	s := catalog.TPCH(10)
	q := query(t, s, s.Tables()...)
	run := func() string {
		p := &Planner{Coster: coster(), Seed: 5}
		res, err := p.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Plan.Signature()
	}
	if run() != run() {
		t.Error("same seed produced different plans")
	}
}

func TestPlanScalesTo100Tables(t *testing.T) {
	if testing.Short() {
		t.Skip("large schema")
	}
	rng := rand.New(rand.NewSource(99))
	s, err := catalog.Random(rng, 100, catalog.DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := query(t, s, s.Tables()...)
	p := &Planner{Coster: coster(), Seed: 100, Opts: Options{Iterations: 3, Seeds: 4}}
	res, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Joins()) != 99 {
		t.Errorf("joins = %d, want 99", len(res.Plan.Joins()))
	}
}

func TestPlanErrors(t *testing.T) {
	s := catalog.TPCH(1)
	q := query(t, s, catalog.Lineitem, catalog.Orders)
	if _, err := (&Planner{Seed: 1}).Plan(q); err == nil {
		t.Error("nil coster accepted")
	}
	// The zero Seed is a valid seed.
	if _, err := (&Planner{Coster: coster()}).Plan(q); err != nil {
		t.Errorf("zero seed: %v", err)
	}
	p := &Planner{Coster: optimizertest.FailingCoster{}, Seed: 1}
	if _, err := p.Plan(q); err == nil {
		t.Error("all-infeasible plans should error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Iterations != 10 || o.Seeds != 10 || o.MutationsPerPlan != 4 {
		t.Errorf("defaults = %+v", o)
	}
	// Explicit values survive.
	o2 := Options{Iterations: 3, Seeds: 2, MutationsPerPlan: 1}.withDefaults()
	if o2 != (Options{Iterations: 3, Seeds: 2, MutationsPerPlan: 1}) {
		t.Errorf("explicit = %+v", o2)
	}
}

// The winner plan must carry resource annotations after Plan returns.
func TestPlanAnnotatesResources(t *testing.T) {
	s := catalog.TPCH(10)
	q := query(t, s, catalog.Lineitem, catalog.Orders, catalog.Customer)
	p := &Planner{Coster: coster(), Seed: 21}
	res, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Plan.Joins() {
		if j.Res.IsZero() {
			t.Errorf("join over %v unannotated", j.Relations())
		}
	}
}

var _ optimizer.Planner = (*Planner)(nil)
