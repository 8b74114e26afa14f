package randomized

import (
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cost"
)

// TestRestartsArchiveStaysNonDominated: the merged multi-restart archive
// must respect strict Pareto non-domination like a single search's.
func TestRestartsArchiveStaysNonDominated(t *testing.T) {
	s := catalog.TPCH(10)
	q := query(t, s, s.Tables()...)
	p := &Planner{Coster: coster(), Seed: 3, Opts: Options{Restarts: 3}}
	archive, considered, err := p.PlanPareto(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(archive) == 0 || considered == 0 {
		t.Fatal("empty merged archive")
	}
	for i, a := range archive {
		for j, b := range archive {
			if i == j {
				continue
			}
			av := cost.Vector{Time: a.Cost.Seconds, Money: a.Cost.Money}
			bv := cost.Vector{Time: b.Cost.Seconds, Money: b.Cost.Money}
			if av.Dominates(bv) {
				t.Errorf("merged archive entry %d dominates %d", i, j)
			}
		}
		if err := a.Plan.Validate(q); err != nil {
			t.Errorf("entry %d invalid: %v", i, err)
		}
	}
}
