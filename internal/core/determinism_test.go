package core

import (
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/workload"
)

// reversedSchema rebuilds a schema inserting tables and join edges in the
// opposite order, so any dependence on insertion order (rather than the
// sorted name index the catalog maintains) shows up as a plan difference.
func reversedSchema(t *testing.T, s *catalog.Schema) *catalog.Schema {
	t.Helper()
	r := catalog.NewSchema()
	names := s.Tables()
	for i := len(names) - 1; i >= 0; i-- {
		if err := r.AddTable(s.MustTable(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	edges := s.Edges()
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		if err := r.AddJoin(e.B, e.A, e.Selectivity); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestOptimizeDeterministic is the paper's reproducibility contract end to
// end: the same TPC-H query must yield a bit-identical decision across
// repeated runs and across catalog insertion order.
func TestOptimizeDeterministic(t *testing.T) {
	base := catalog.TPCH(100)
	schemas := []struct {
		name string
		s    *catalog.Schema
	}{
		{"base", base},
		{"reversed", reversedSchema(t, base)},
	}
	for _, kind := range []PlannerKind{Selinger, FastRandomized} {
		t.Run(kind.String(), func(t *testing.T) {
			var refKey string
			var ref *Decision
			for _, sc := range schemas {
				q, err := workload.TPCHQuery(sc.s, workload.All)
				if err != nil {
					t.Fatal(err)
				}
				o, err := New(cluster.Default(), Options{Planner: kind, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				d1, err := o.Optimize(q)
				if err != nil {
					t.Fatal(err)
				}
				d2, err := o.Optimize(q)
				if err != nil {
					t.Fatal(err)
				}
				key := "schema=" + sc.name
				assertSameDecision(t, key+" (repeat run)", d1, d2)
				if ref == nil {
					refKey, ref = key, d1
					continue
				}
				assertSameDecision(t, key+" vs "+refKey, ref, d1)
			}
		})
	}
}

// assertSameDecision compares every deterministic field of two decisions
// (Elapsed is wall clock and excluded).
func assertSameDecision(t *testing.T, label string, a, b *Decision) {
	t.Helper()
	if as, bs := a.Plan.SignatureWithResources(), b.Plan.SignatureWithResources(); as != bs {
		t.Errorf("%s: plan signature differs:\n%s\nvs\n%s", label, as, bs)
	}
	if a.Time != b.Time || a.Money != b.Money {
		t.Errorf("%s: cost differs: time %v vs %v, money %v vs %v", label, a.Time, b.Time, a.Money, b.Money)
	}
	if a.PlansConsidered != b.PlansConsidered {
		t.Errorf("%s: PlansConsidered %d vs %d", label, a.PlansConsidered, b.PlansConsidered)
	}
	if a.ResourceIterations != b.ResourceIterations {
		t.Errorf("%s: ResourceIterations %d vs %d", label, a.ResourceIterations, b.ResourceIterations)
	}
}
