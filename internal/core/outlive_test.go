package core_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// TestPlansOutliveArena: the randomized planner builds every tree in the
// arena of a pooled search state and recycles it for the next search, so
// what it returns must be a copy. A Decision kept from Optimize and one
// kept from OptimizeForPrice must read the same plan, resources, time and
// money after 50 other queries are planned — first one after another, then
// from four goroutines at once, which under -race also flags any write to
// memory a kept plan still points into.
func TestPlansOutliveArena(t *testing.T) {
	rng := rand.New(rand.NewSource(715))
	s, err := catalog.Random(rng, 100, catalog.DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	newOptimizer := func() *core.Optimizer {
		o, err := core.New(cluster.Default(), core.Options{
			Models:     trainedModels(t),
			Planner:    core.FastRandomized,
			Resource:   &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.01},
			Seed:       7,
			Randomized: randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	query := func(k int) *plan.Query {
		q, err := workload.RandomQuery(rng, s, k)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	type kept struct {
		name        string
		q           *plan.Query
		d           *core.Decision
		sig         string
		time, money uint64
	}
	keep := func(name string, q *plan.Query, d *core.Decision, err error) kept {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return kept{name, q, d, d.Plan.SignatureWithResources(), math.Float64bits(d.Time), math.Float64bits(float64(d.Money))}
	}
	q1, q2 := query(30), query(30)
	d1, err := newOptimizer().Optimize(q1)
	k1 := keep("Optimize", q1, d1, err)
	d2, err := newOptimizer().OptimizeForPrice(q2, 1e9)
	k2 := keep("OptimizeForPrice", q2, d2, err)
	check := func(when string) {
		t.Helper()
		for _, k := range []kept{k1, k2} {
			if err := k.d.Plan.Validate(k.q); err != nil {
				t.Fatalf("%s, after %s: kept plan no longer valid: %v", k.name, when, err)
			}
			if sig := k.d.Plan.SignatureWithResources(); sig != k.sig {
				t.Fatalf("%s, after %s: kept plan changed\n%s\nwas\n%s", k.name, when, sig, k.sig)
			}
			if math.Float64bits(k.d.Time) != k.time || math.Float64bits(float64(k.d.Money)) != k.money {
				t.Fatalf("%s, after %s: kept time and money changed", k.name, when)
			}
		}
	}

	others := make([]*plan.Query, 50)
	for i := range others {
		others[i] = query(2 + rng.Intn(40))
	}
	for i, q := range others {
		o := newOptimizer()
		if i%2 == 0 {
			_, err = o.Optimize(q)
		} else {
			_, err = o.OptimizeForPrice(q, 1e9)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	check("50 queries in sequence")

	var wg sync.WaitGroup
	errs := make(chan error, len(others))
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := newOptimizer()
			for i := w; i < len(others); i += 4 {
				var err error
				if i%2 == 0 {
					_, err = o.Optimize(others[i])
				} else {
					_, err = o.OptimizeForPrice(others[i], 1e9)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check("50 queries from four goroutines")
}
