package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
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
// ladder, base vs reversed catalog insertion order and both the trained
// and the paper model sets, every incremental decision must be
// bit-identical (plan signature with resources, modeled time and money)
// to planning from scratch with a fresh optimizer under the same
// conditions. The optimizer is the served one: cost memo on, memory-aware,
// a bare hill climb. A resource.Cache is keyed by data size alone and
// answers across conditions, its designed approximation, so behind one an
// incremental answer may differ from scratch (trained Q12 at step 5 plans
// SMJ@60x6GB against scratch's SMJ@60x7GB). PlansConsidered and
// ResourceIterations are planner-effort metrics and intentionally differ
// on memoized answers.
func TestIncrementalMatchesScratch(t *testing.T) {
	base := catalog.TPCH(100)
	schemas := []struct {
		name string
		s    *catalog.Schema
	}{
		{"base", base},
		{"reversed", reversedSchema(t, base)},
	}
	sets := []struct {
		name   string
		models *cost.Models
	}{
		{"trained", trainedModels(t)},
		{"paper", cost.PaperModels()},
	}
	engine := execsim.Hive()
	ladder := condLadder(t)
	for _, set := range sets {
		for _, sc := range schemas {
			for _, qname := range workload.QueryNames {
				q, err := workload.TPCHQuery(sc.s, qname)
				if err != nil {
					t.Fatal(err)
				}
				o, err := New(cluster.Default(), Options{Models: set.models, Seed: 42, Engine: &engine, MemoizeCosts: true})
				if err != nil {
					t.Fatal(err)
				}
				inc := NewIncremental(o)
				for step, cond := range ladder {
					label := set.name + " schema=" + sc.name + " " + qname + " step " + itoa(step)
					got, src, err := inc.Optimize(q, cond)
					if err != nil {
						t.Fatalf("%s: incremental: %v", label, err)
					}
					// From scratch: a fresh optimizer, fresh caches, same conditions.
					fo, err := New(cond, Options{Models: set.models, Seed: 42, Engine: &engine})
					if err != nil {
						t.Fatal(err)
					}
					want, err := fo.Optimize(q)
					if err != nil {
						t.Fatalf("%s: scratch: %v", label, err)
					}
					label += " (" + src.String() + ")"
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
	o, err := New(cluster.Default(), Options{Models: trainedModels(t), Seed: 42})
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
	o, err := New(cluster.Default(), Options{Models: trainedModels(t), Seed: 42})
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

// TestIncrementalExecuteOnce: Execute runs a memoized decision's
// simulation once and answers every later call with the same result,
// equal to a fresh run; a decision outside the live memo — never in it,
// planned before a model swap, or evicted — runs fresh every time; and the
// kept results never outnumber the memoized decisions.
func TestIncrementalExecuteOnce(t *testing.T) {
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.Q3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(cluster.Default(), Options{Models: trainedModels(t), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(o)
	engine, pricing := execsim.Hive(), cost.DefaultPricing()
	base := cluster.Default()
	restrict := func(max int) cluster.Conditions {
		t.Helper()
		c, err := base.Restrict(max, base.MaxContainerGB)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	optimize := func(cond cluster.Conditions) *Decision {
		t.Helper()
		d, _, err := inc.Optimize(q, cond)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// execute runs d through the memo twice and checks both answers
	// against a fresh run; once reports whether they were one result.
	execute := func(d *Decision) (res *execsim.Result, once bool) {
		t.Helper()
		r1, err1 := inc.Execute(q, d, engine, pricing)
		r2, err2 := inc.Execute(q, d, engine, pricing)
		fresh, errF := engine.Execute(d.Plan, pricing)
		if (err1 == nil) != (errF == nil) || (err2 == nil) != (errF == nil) || !reflect.DeepEqual(r1, fresh) || !reflect.DeepEqual(r2, fresh) {
			t.Fatalf("memoized executions %+v (%v), %+v (%v); fresh %+v (%v)", r1, err1, r2, err2, fresh, errF)
		}
		checkRunsBounded(t, inc)
		return r1, r1 == r2
	}

	d := optimize(base)
	r, once := execute(d)
	if !once {
		t.Error("a memoized decision ran twice")
	}
	other, err := o.OptimizeUnder(context.Background(), q, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, once := execute(other); once {
		t.Error("a decision the memo never held shared one result across calls")
	}

	if err := o.SetModels(cost.PaperModels()); err != nil {
		t.Fatal(err)
	}
	if again, once := execute(d); once || again == r {
		t.Error("a decision planned before the model swap answered from the dropped memo")
	}
	d2 := optimize(base)
	if _, once := execute(d2); !once {
		t.Error("a decision memoized after the swap ran twice")
	}

	inc.maxExact = 1
	optimize(restrict(90)) // evicts d2
	if _, once := execute(d2); once {
		t.Error("an evicted decision answered from the memo")
	}
}

// TestIncrementalClampOnce: Clamp answers each (memoized decision,
// conditions) pair once — the clamped plan equal to a fresh
// scheduler.ClampClone onto those exact conditions, GB axis included, with
// no prediction, and its execution equal to a fresh run or the same OOM
// error — and every later call with the same decision and result. A
// decision outside the live memo — never in it, planned before a model
// swap, or evicted — clamps fresh every time, and a record keeps at most
// maxExact clamps.
func TestIncrementalClampOnce(t *testing.T) {
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.Q3)
	if err != nil {
		t.Fatal(err)
	}
	engine, pricing := execsim.Hive(), cost.DefaultPricing()
	models := trainedModels(t)
	// Trained models plan Q3 with a broadcast join, whose build side runs
	// out of memory once clamped onto 1GB containers.
	o, err := New(cluster.Default(), Options{Seed: 42, Models: models, Engine: &engine})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(o)
	base := cluster.Default()
	var conds []cluster.Conditions
	for _, max := range []int{100, 40, 7, 2} {
		for _, gb := range []float64{10, 6, 2, 1} {
			c, err := base.Restrict(max, gb)
			if err != nil {
				t.Fatal(err)
			}
			conds = append(conds, c)
		}
	}
	optimize := func(cond cluster.Conditions) *Decision {
		t.Helper()
		d, _, err := inc.Optimize(q, cond)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ooms := 0
	// clamp clamps d onto cond through the memo twice and checks both
	// answers against a fresh clamp and run; once reports whether they
	// were one answer.
	clamp := func(d *Decision, cond cluster.Conditions) (res *execsim.Result, once bool) {
		t.Helper()
		c1, r1, err1 := inc.Clamp(q, d, cond, engine, pricing)
		c2, r2, err2 := inc.Clamp(q, d, cond, engine, pricing)
		want, _ := scheduler.ClampClone(d.Plan, cond, nil)
		fresh, errF := engine.Execute(want, pricing)
		for _, c := range []*Decision{c1, c2} {
			if !c.Plan.Equal(want) || c.Time != 0 || c.Money != 0 {
				t.Fatalf("clamp onto %+v: %s (time %g), want %s", cond, c.Plan.SignatureWithResources(), c.Time, want.SignatureWithResources())
			}
		}
		var oom *execsim.OOMError
		switch {
		case errF != nil:
			if !errors.As(errF, &oom) || err1 == nil || err2 == nil || err1.Error() != errF.Error() || err2.Error() != errF.Error() {
				t.Fatalf("clamp onto %+v: errors %v, %v; fresh %v", cond, err1, err2, errF)
			}
			ooms++
		case err1 != nil || err2 != nil || !reflect.DeepEqual(r1, fresh) || !reflect.DeepEqual(r2, fresh):
			t.Fatalf("clamp onto %+v: executions %+v (%v), %+v (%v); fresh %+v", cond, r1, err1, r2, err2, fresh)
		}
		checkRunsBounded(t, inc)
		return r1, c1 == c2 && r1 == r2
	}

	d := optimize(base)
	kept := make(map[cluster.Conditions]*execsim.Result)
	for _, cond := range conds {
		res, once := clamp(d, cond)
		if !once {
			t.Errorf("a memoized decision clamped onto %+v twice", cond)
		}
		kept[cond] = res
	}
	if ooms == 0 {
		t.Fatal("no clamp ran out of memory: the OOM answer is untested")
	}
	other, err := o.OptimizeUnder(context.Background(), q, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, once := clamp(other, conds[5]); once {
		t.Error("a decision the memo never held shared one clamp across calls")
	}

	if err := o.SetModels(cost.PaperModels()); err != nil {
		t.Fatal(err)
	}
	for _, cond := range conds {
		if res, once := clamp(d, cond); once || (res != nil && res == kept[cond]) {
			t.Errorf("a decision planned before the model swap clamped onto %+v from the dropped memo", cond)
		}
	}
	d2 := optimize(base)
	if _, once := clamp(d2, conds[5]); !once {
		t.Error("a decision memoized after the swap clamped twice")
	}

	inc.maxExact = 4
	for _, cond := range conds {
		clamp(d2, cond) // more clamps than the record keeps
	}
	inc.maxExact = 1
	optimize(conds[1]) // evicts d2
	if _, once := clamp(d2, conds[5]); once {
		t.Error("an evicted decision clamped from the memo")
	}
}

// checkRunsBounded fails unless every memo entry's records — the kept
// runs and clamps — belong to its memoized decisions.
func checkRunsBounded(t *testing.T, inc *Incremental) {
	t.Helper()
	for _, e := range inc.entries {
		if len(e.byDecision) != len(e.exact) {
			t.Fatalf("%d decision records for %d memoized decisions", len(e.byDecision), len(e.exact))
		}
		for _, m := range e.exact {
			if e.byDecision[m.d] != m {
				t.Fatal("a memoized decision does not find its own record")
			}
			if len(m.clamps) > inc.maxExact {
				t.Fatalf("a decision keeps %d clamps, bound %d", len(m.clamps), inc.maxExact)
			}
		}
	}
}
