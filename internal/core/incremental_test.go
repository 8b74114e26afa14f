package core

import (
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// condLadder is a drift scenario for the incremental re-optimizer: a
// sequence of cluster conditions as a shared pool fills and frees. It
// mixes repeats (exact-memo territory) with small restrictions, growth
// and crashes (full-replan territory).
func condLadder(t *testing.T) []cluster.Conditions {
	t.Helper()
	base := cluster.Default()
	maxes := []int{100, 95, 88, 95, 100, 60, 55, 55, 100, 97, 88, 42, 100}
	out := make([]cluster.Conditions, 0, len(maxes)+2)
	for _, m := range maxes {
		c, err := base.Restrict(m, base.MaxContainerGB)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	// GB-axis restrictions too.
	for _, gb := range []float64{9, 7} {
		c, err := base.Restrict(base.MaxContainers, gb)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestIncrementalMatchesScratch is the acceptance bar of incremental
// re-optimization: across the TPC-H workload, a drifting-conditions
// ladder and base vs reversed catalog insertion order, every incremental
// decision must be bit-identical (plan signature with resources, modeled
// time and money) to planning from scratch with a fresh optimizer under
// the same conditions. PlansConsidered and ResourceIterations are
// planner-effort metrics and intentionally differ on memoized answers.
func TestIncrementalMatchesScratch(t *testing.T) {
	base := catalog.TPCH(100)
	schemas := []struct {
		name string
		s    *catalog.Schema
	}{
		{"base", base},
		{"reversed", reversedSchema(t, base)},
	}
	engine := execsim.Hive()
	ladder := condLadder(t)
	for _, sc := range schemas {
		for _, qname := range workload.QueryNames {
			q, err := workload.TPCHQuery(sc.s, qname)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Seed: 42, Engine: &engine,
				MemoizeCosts: true, Resource: &resource.Cache{Inner: &resource.HillClimb{}}}
			o, err := New(cluster.Default(), opts)
			if err != nil {
				t.Fatal(err)
			}
			inc := NewIncremental(o)
			for step, cond := range ladder {
				got, src, err := inc.Optimize(q, cond)
				if err != nil {
					t.Fatalf("schema=%s %s step %d: incremental: %v", sc.name, qname, step, err)
				}
				// From scratch: a fresh optimizer, fresh caches, same conditions.
				fo, err := New(cond, Options{Seed: 42, Engine: &engine})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fo.Optimize(q)
				if err != nil {
					t.Fatalf("schema=%s %s step %d: scratch: %v", sc.name, qname, step, err)
				}
				label := "schema=" + sc.name + " " + qname +
					" step " + itoa(step) + " (" + src.String() + ")"
				if gs, ws := got.Plan.SignatureWithResources(), want.Plan.SignatureWithResources(); gs != ws {
					t.Errorf("%s: plan differs:\n%s\nvs scratch\n%s", label, gs, ws)
				}
				if got.Time != want.Time || got.Money != want.Money {
					t.Errorf("%s: cost differs: time %v vs %v, money %v vs %v",
						label, got.Time, want.Time, got.Money, want.Money)
				}
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestIncrementalSources exercises the answer-source accounting: repeats
// hit the exact memo, every other condition re-plans, a model swap
// invalidates the memo and the FIFO bound evicts the oldest conditions.
func TestIncrementalSources(t *testing.T) {
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.All)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(cluster.Default(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(o)
	base := cluster.Default()

	mustSrc := func(max int, want ReoptSource) {
		t.Helper()
		cond, err := base.Restrict(max, base.MaxContainerGB)
		if err != nil {
			t.Fatal(err)
		}
		_, src, err := inc.Optimize(q, cond)
		if err != nil {
			t.Fatal(err)
		}
		if src != want {
			t.Errorf("MaxContainers=%d: source = %v, want %v", max, src, want)
		}
	}

	mustSrc(100, ReoptFull) // first sight
	mustSrc(100, ReoptExact)
	mustSrc(90, ReoptFull) // a restriction is new conditions
	mustSrc(90, ReoptExact)
	mustSrc(30, ReoptFull)
	if st := inc.Stats(); st.Exact != 2 || st.Full != 3 {
		t.Errorf("stats = %+v, want 2 exact / 3 full", st)
	}

	// A model swap invalidates everything planned before it.
	if err := o.SetModels(cost.PaperModels()); err != nil {
		t.Fatal(err)
	}
	mustSrc(100, ReoptFull)

	// The memo is FIFO-bounded: the third distinct conditions evict the
	// first, and only the first.
	inc.maxExact = 2
	mustSrc(90, ReoptFull)
	mustSrc(30, ReoptFull) // evicts 100
	mustSrc(90, ReoptExact)
	mustSrc(100, ReoptFull) // evicts 90
	mustSrc(30, ReoptExact)
	if _, _, err := inc.Optimize(q, cluster.Conditions{}); err == nil {
		t.Error("invalid conditions accepted")
	}
}

// TestIncrementalSharesPlanSafely: the memoized decision is returned by
// pointer; two hits must agree and survive a caller cloning the plan.
func TestIncrementalMemoStable(t *testing.T) {
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.Q3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(cluster.Default(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(o)
	d1, _, err := inc.Optimize(q, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	sig := d1.Plan.SignatureWithResources()
	clone := d1.Plan.Clone()
	clone.Res = plan.Resources{Containers: 1, ContainerGB: 1}
	d2, src, err := inc.Optimize(q, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	if src != ReoptExact {
		t.Fatalf("second call source = %v, want exact", src)
	}
	if d2.Plan.SignatureWithResources() != sig {
		t.Fatal("memoized plan drifted after a caller cloned and mutated the clone")
	}
}
