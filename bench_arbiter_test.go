// Benchmark for the workload arbiter's online SubmitWait admission path,
// and the trained models and TPC-H queries the root tests and benchmarks
// share. Run with:
//
//	go test -bench Arbiter -benchtime=0.2s .
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
	"raqo/internal/scheduler"
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

// BenchmarkArbiterSubmitWait measures the online admission path: one
// SubmitWait round-trip on a warm arbiter (submission plans cached), the
// cost POST /v1/submit pays per request on top of HTTP.
func BenchmarkArbiterSubmitWait(b *testing.B) {
	a := newBenchArbiter(b)
	names := []string{workload.Q12, workload.Q3, workload.Q2}
	tenants := []string{"etl", "bi", "adhoc"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := a.SubmitWait(tenants[i%len(tenants)], names[i%len(names)], scheduler.Reoptimize)
		if err != nil {
			b.Fatal(err)
		}
	}
}
