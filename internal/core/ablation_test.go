package core

import (
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/execsim"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// TestDesignAblations pins the design choices of DESIGN §5 on TPC-H All
// with the served (trained) models. Each row measures the paper's choice
// against its alternatives as a deterministic count or modeled time,
// listed from the worse alternative to the choice: every reading must be
// strictly below the one before it.
func TestDesignAblations(t *testing.T) {
	models := trainedModels(t)
	q, err := workload.TPCHQuery(catalog.TPCH(100), workload.All)
	if err != nil {
		t.Fatal(err)
	}
	cond := cluster.Default()
	optimize := func(opts Options) *Decision {
		t.Helper()
		opts.Models = models
		o, err := New(cond, opts)
		if err != nil {
			t.Fatal(err)
		}
		d, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// cacheIters is the resource iterations of one planning pass over a
	// fresh cache at the paper's largest delta threshold.
	cacheIters := func(mode resource.LookupMode) float64 {
		cache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: mode, ThresholdGB: 0.1}
		return float64(optimize(Options{Resource: cache}).ResourceIterations)
	}
	// sharedSeconds plans at fixed resources, climbs once for the operator
	// with the largest smaller input, and prices the whole plan at that
	// one configuration.
	sharedSeconds := func() float64 {
		o, err := New(cond, Options{Models: models})
		if err != nil {
			t.Fatal(err)
		}
		d, err := o.OptimizeFixed(q, plan.Resources{Containers: 10, ContainerGB: 3})
		if err != nil {
			t.Fatal(err)
		}
		var largest *plan.Node
		for _, j := range d.Plan.Joins() {
			if largest == nil || j.SmallerInputGB() >= largest.SmallerInputGB() {
				largest = j
			}
		}
		model, _ := models.For(largest.Algo)
		shared, err := (&resource.HillClimb{}).Plan(model, largest.SmallerInputGB(), cond)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := optimizer.PlanCost(&Coster{Models: models, Fixed: shared, Cond: cond}, d.Plan)
		if err != nil {
			t.Fatal(err)
		}
		return oc.Seconds
	}
	// randomizedSeconds is the mean modeled time over seeds 0-2 of the
	// randomized planner at the given iteration budget.
	randomizedSeconds := func(iterations int) float64 {
		var sum float64
		for seed := int64(0); seed < 3; seed++ {
			sum += optimize(Options{
				Planner:    FastRandomized,
				Seed:       seed,
				Randomized: randomized.Options{Iterations: iterations},
			}).Time
		}
		return sum / 3
	}
	engine := execsim.Hive()

	for _, c := range []struct {
		name     string
		readings []string
		values   func() []float64
	}{
		{"cache nearest-neighbour climbs less than exact", []string{"exact", "nearest-neighbour"},
			func() []float64 { return []float64{cacheIters(resource.Exact), cacheIters(resource.NearestNeighbor)} }},
		{"cache weighted-average climbs less than exact", []string{"exact", "weighted-average"},
			func() []float64 { return []float64{cacheIters(resource.Exact), cacheIters(resource.WeightedAverage)} }},
		{"per-operator resources plan faster than one shared configuration", []string{"shared", "per-operator"},
			func() []float64 { return []float64{sharedSeconds(), optimize(Options{}).Time} }},
		{"a larger randomized budget plans faster", []string{"iterations=2", "iterations=10", "iterations=30"},
			func() []float64 { return []float64{randomizedSeconds(2), randomizedSeconds(10), randomizedSeconds(30)} }},
		{"memory-aware pruning visits fewer configurations", []string{"pruning off", "pruning on"},
			func() []float64 {
				return []float64{
					float64(optimize(Options{}).ResourceIterations),
					float64(optimize(Options{Engine: &engine}).ResourceIterations),
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := c.values()
			for i := range v {
				t.Logf("%s: %.1f", c.readings[i], v[i])
				if i > 0 && v[i] >= v[i-1] {
					t.Errorf("%s %.1f is not below %s %.1f", c.readings[i], v[i], c.readings[i-1], v[i-1])
				}
			}
		})
	}
}
