// The trained models and TPC-H queries the root tests and benchmarks
// share, and a warm shared-cluster arbiter built on them.
package raqo_test

import (
	"sync"
	"testing"

	"raqo/internal/arbiter"
	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/workload"
)

var (
	fixtureOnce    sync.Once
	fixtureModels  *cost.Models
	fixtureQueries map[string]*plan.Query
	fixtureErr     error
)

// benchFixtures returns the cost models `raqo serve` plans on, trained on
// cloud.Engine(), and the four TPC-H evaluation queries at SF 100, built
// once per test binary: training costs thousands of allocations, which no
// allocation ceiling should count.
func benchFixtures(tb testing.TB) (*cost.Models, map[string]*plan.Query) {
	tb.Helper()
	fixtureOnce.Do(func() {
		fixtureModels, fixtureErr = workload.TrainedModels(cloud.Engine())
		if fixtureErr != nil {
			return
		}
		fixtureQueries, fixtureErr = workload.TPCHQueries(catalog.TPCH(100))
	})
	if fixtureErr != nil {
		tb.Fatal(fixtureErr)
	}
	return fixtureModels, fixtureQueries
}

func newBenchArbiter(tb testing.TB) *arbiter.Arbiter {
	tb.Helper()
	models, queries := benchFixtures(tb)
	engine := cloud.Engine()
	opt, err := core.New(cluster.Default(), core.Options{
		Models:       models,
		Engine:       &engine,
		MemoizeCosts: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := arbiter.New(arbiter.Config{
		Workload: cloud.Workload{
			Base:      cluster.Default(),
			Optimizer: opt,
			Queries:   queries,
			Tenants: []arbiter.TenantConfig{
				{Name: "etl", Weight: 2},
				{Name: "bi", Weight: 1},
				{Name: "adhoc", Weight: 1},
			},
		},
		Capacity: 100,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}
