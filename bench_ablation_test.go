// Ablation benchmarks for the design choices DESIGN.md calls out:
// hill-climb start point, cache lookup policy, per-operator vs shared
// resource decisions, and the randomized planner's iteration budget.
package raqo_test

import (
	"math/rand"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// BenchmarkAblationHillClimbStart compares starting the climb at the
// cluster minimum (the paper's choice), the maximum, and the midpoint. The
// custom metric evals/op is the number of cost-model evaluations.
func BenchmarkAblationHillClimbStart(b *testing.B) {
	cond := cluster.Default()
	models := mustModels(b)
	smj, _ := models.For(plan.SMJ)
	starts := map[string]plan.Resources{
		"min": {},
		"max": {Containers: cond.MaxContainers, ContainerGB: cond.MaxContainerGB},
		"mid": {Containers: 50, ContainerGB: 5},
	}
	for name, start := range starts {
		b.Run(name, func(b *testing.B) {
			hc := &resource.HillClimb{Start: start}
			for i := 0; i < b.N; i++ {
				for _, ss := range []float64{0.5, 1.5, 3.4, 5.1} {
					if _, err := hc.Plan(smj, ss, cond); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(hc.Evaluations())/float64(b.N), "evals/op")
		})
	}
}

// BenchmarkAblationCachePolicy compares the three cache lookup policies on
// the TPC-H All query at the paper's largest threshold.
func BenchmarkAblationCachePolicy(b *testing.B) {
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.All)
	if err != nil {
		b.Fatal(err)
	}
	cond := cluster.Default()
	for _, mode := range []resource.LookupMode{resource.Exact, resource.NearestNeighbor, resource.WeightedAverage} {
		b.Run(mode.String(), func(b *testing.B) {
			var iters int64
			for i := 0; i < b.N; i++ {
				cache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: mode, ThresholdGB: 0.1}
				o, err := core.New(cond, core.Options{Resource: cache})
				if err != nil {
					b.Fatal(err)
				}
				d, err := o.Optimize(q)
				if err != nil {
					b.Fatal(err)
				}
				iters += d.ResourceIterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "resource-iters/op")
		})
	}
}

// BenchmarkAblationSharedResources compares the paper's per-operator
// independent resource decisions with a single shared configuration for
// the whole plan (planned for the largest operator). The metric
// plan-seconds/op is the modeled plan time — shared planning trades plan
// quality for fewer climbs.
func BenchmarkAblationSharedResources(b *testing.B) {
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.All)
	if err != nil {
		b.Fatal(err)
	}
	cond := cluster.Default()
	models := mustModels(b)

	b.Run("per-operator", func(b *testing.B) {
		var modeled float64
		for i := 0; i < b.N; i++ {
			o, err := core.New(cond, core.Options{Models: models, Resource: &resource.HillClimb{}})
			if err != nil {
				b.Fatal(err)
			}
			d, err := o.Optimize(q)
			if err != nil {
				b.Fatal(err)
			}
			modeled += d.Time
		}
		b.ReportMetric(modeled/float64(b.N), "plan-seconds/op")
	})

	b.Run("shared", func(b *testing.B) {
		var modeled float64
		for i := 0; i < b.N; i++ {
			// Plan a query at fixed resources, pick the largest operator,
			// climb once for it, then re-price the whole plan at that one
			// configuration.
			o, err := core.New(cond, core.Options{Models: models})
			if err != nil {
				b.Fatal(err)
			}
			d, err := o.OptimizeFixed(q, plan.Resources{Containers: 10, ContainerGB: 3})
			if err != nil {
				b.Fatal(err)
			}
			var maxSS float64
			var maxOp *plan.Node
			for _, j := range d.Plan.Joins() {
				if j.SmallerInputGB() >= maxSS {
					maxSS = j.SmallerInputGB()
					maxOp = j
				}
			}
			model, _ := models.For(maxOp.Algo)
			hc := &resource.HillClimb{}
			shared, err := hc.Plan(model, maxSS, cond)
			if err != nil {
				b.Fatal(err)
			}
			coster := &core.Coster{Models: models, Fixed: shared, Cond: cond}
			oc, err := optimizer.PlanCost(coster, d.Plan)
			if err != nil {
				b.Fatal(err)
			}
			modeled += oc.Seconds
		}
		b.ReportMetric(modeled/float64(b.N), "plan-seconds/op")
	})
}

// BenchmarkAblationRandomizedIterations sweeps the randomized planner's
// iteration budget and reports the modeled plan time it converges to.
func BenchmarkAblationRandomizedIterations(b *testing.B) {
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.All)
	if err != nil {
		b.Fatal(err)
	}
	cond := cluster.Default()
	models := mustModels(b)
	for _, iters := range []int{2, 10, 30} {
		b.Run(byIters(iters), func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				o, err := core.New(cond, core.Options{
					Planner: core.FastRandomized,
					Models:  models,
					Seed:    int64(i),
					Randomized: randomized.Options{
						Iterations: iters,
					},
					Resource: &resource.HillClimb{},
				})
				if err != nil {
					b.Fatal(err)
				}
				d, err := o.Optimize(q)
				if err != nil {
					b.Fatal(err)
				}
				modeled += d.Time
			}
			b.ReportMetric(modeled/float64(b.N), "plan-seconds/op")
		})
	}
}

func byIters(n int) string {
	switch n {
	case 2:
		return "iters=2"
	case 10:
		return "iters=10"
	default:
		return "iters=30"
	}
}

func mustModels(b *testing.B) *cost.Models {
	b.Helper()
	models, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		b.Fatal(err)
	}
	return models
}

// BenchmarkAblationMemoryPruning compares planning with and without the
// Section VIII memory-awareness pruning (broadcast candidates that cannot
// fit any container are dropped before resource planning).
func BenchmarkAblationMemoryPruning(b *testing.B) {
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.All)
	if err != nil {
		b.Fatal(err)
	}
	cond := cluster.Default()
	models := mustModels(b)
	engine := execsim.Hive()
	for _, pruned := range []bool{false, true} {
		name := "off"
		if pruned {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var iters int64
			for i := 0; i < b.N; i++ {
				opts := core.Options{Models: models, Resource: &resource.HillClimb{}}
				if pruned {
					opts.Engine = &engine
				}
				o, err := core.New(cond, opts)
				if err != nil {
					b.Fatal(err)
				}
				d, err := o.Optimize(q)
				if err != nil {
					b.Fatal(err)
				}
				iters += d.ResourceIterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "resource-iters/op")
		})
	}
}

// BenchmarkMicroHillClimb measures a single resource-planning call.
func BenchmarkMicroHillClimb(b *testing.B) {
	cond := cluster.Default()
	models := mustModels(b)
	smj, _ := models.For(plan.SMJ)
	hc := &resource.HillClimb{}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hc.Plan(smj, rng.Float64()*8, cond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroCacheHit measures a warm cache lookup.
func BenchmarkMicroCacheHit(b *testing.B) {
	cond := cluster.Default()
	models := mustModels(b)
	smj, _ := models.For(plan.SMJ)
	cache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.1}
	if _, err := cache.Plan(smj, 3.4, cond); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Plan(smj, 3.41, cond); err != nil {
			b.Fatal(err)
		}
	}
}
