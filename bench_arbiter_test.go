// The trained models and TPC-H queries the root tests and benchmarks
// share, and a shared cluster built on them.
package raqo_test

import (
	"sync"
	"testing"

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

// newBenchArbiter is the shared cluster of `raqo figure arbiter`: 100
// containers, three weighted tenants.
func newBenchArbiter(tb testing.TB) *cloud.Arbiter {
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
	cfg, err := cloud.SharedCluster(cloud.Workload{
		Base:      cluster.Default(),
		Optimizer: opt,
		Queries:   queries,
		Tenants: []cloud.TenantConfig{
			{Name: "etl", Weight: 2},
			{Name: "bi", Weight: 1},
			{Name: "adhoc", Weight: 1},
		},
	}, 100)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := cloud.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}
