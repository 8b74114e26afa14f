package core_test

import (
	"math"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// decide plans every table of s on a new optimizer and returns the
// decision in the golden file's form.
func decide(t *testing.T, planner core.PlannerKind, s *catalog.Schema) goldenDecision {
	t.Helper()
	q, err := plan.NewQuery(s, s.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.New(cluster.Default(), core.Options{Models: trainedModels(t), Planner: planner, Seed: 7, Randomized: goldenRandomized})
	if err != nil {
		t.Fatal(err)
	}
	d, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Plan.Validate(q); err != nil {
		t.Fatal(err)
	}
	return goldenDecision{
		Plan:               d.Plan.SignatureWithResources(),
		TimeBits:           math.Float64bits(d.Time),
		MoneyBits:          math.Float64bits(float64(d.Money)),
		PlansConsidered:    d.PlansConsidered,
		ResourceIterations: d.ResourceIterations,
	}
}

// TestPlanningFollowsSchemaMutations: the join-graph index is derived
// state, so a schema that was planned on, then mutated — cloned and
// orders resized as the experiments do, a table added below every
// existing rank, an edge added — must plan exactly as a schema built in
// that final form which was never planned on before.
func TestPlanningFollowsSchemaMutations(t *testing.T) {
	const resized = 3400 * units.MB
	extra := catalog.Table{Name: "aaa_first", Rows: 40_000, RowBytes: 90}

	// final builds the final form from nothing, tables in reverse order.
	final := func(stage int) *catalog.Schema {
		src := catalog.TPCH(100)
		s := catalog.NewSchema()
		names := src.Tables()
		for i := len(names) - 1; i >= 0; i-- {
			tab := src.MustTable(names[i])
			if stage >= 1 && tab.Name == catalog.Orders {
				tab.Rows = int64(resized) / int64(tab.RowBytes)
			}
			if err := s.AddTable(tab); err != nil {
				t.Fatal(err)
			}
		}
		if stage >= 2 {
			if err := s.AddTable(extra); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range src.Edges() {
			if err := s.AddJoin(e.A, e.B, e.Selectivity); err != nil {
				t.Fatal(err)
			}
		}
		if stage >= 2 {
			if err := s.AddJoin(extra.Name, catalog.Customer, 1.0/40_000); err != nil {
				t.Fatal(err)
			}
		}
		if stage >= 3 {
			if err := s.AddJoin(extra.Name, catalog.Lineitem, 1e-7); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	for _, planner := range []core.PlannerKind{core.Selinger, core.FastRandomized} {
		shared := catalog.TPCH(100)
		decide(t, planner, shared) // derives shared's index before the clone
		s := shared.Clone()
		stages := []struct {
			name   string
			mutate func() error
		}{
			{"Clone", func() error { return nil }},
			{"SetTableSize", func() error { return s.SetTableSize(catalog.Orders, resized) }},
			{"AddTable", func() error {
				if err := s.AddTable(extra); err != nil {
					return err
				}
				return s.AddJoin(extra.Name, catalog.Customer, 1.0/40_000)
			}},
			{"AddJoin", func() error { return s.AddJoin(extra.Name, catalog.Lineitem, 1e-7) }},
		}
		for stage, st := range stages {
			if err := st.mutate(); err != nil {
				t.Fatal(err)
			}
			if got, want := decide(t, planner, s), decide(t, planner, final(stage)); got != want {
				t.Errorf("%s after %s: planned-on schema decides\n     %+v\nfresh %+v", planner, st.name, got, want)
			}
		}
		if got, want := decide(t, planner, shared), decide(t, planner, catalog.TPCH(100)); got != want {
			t.Errorf("%s: mutating the clone changed the shared schema's decision", planner)
		}
	}
}
