// Benchmarks for the workload arbiter: a full seeded multi-tenant replay
// per policy (the discrete-event loop end to end) and the online
// SubmitWait admission path. Run with:
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
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/workload"
)

var (
	benchArbOnce    sync.Once
	benchArbModels  *cost.Models
	benchArbQueries map[string]*plan.Query
	benchArbErr     error
)

func benchArbiterFixtures(tb testing.TB) (*cost.Models, map[string]*plan.Query) {
	tb.Helper()
	benchArbOnce.Do(func() {
		benchArbModels, benchArbErr = workload.TrainedModels(execsim.Hive())
		if benchArbErr != nil {
			return
		}
		benchArbQueries, benchArbErr = workload.TPCHQueries(catalog.TPCH(100))
	})
	if benchArbErr != nil {
		tb.Fatal(benchArbErr)
	}
	return benchArbModels, benchArbQueries
}

func newBenchArbiter(tb testing.TB) *arbiter.Arbiter {
	tb.Helper()
	models, queries := benchArbiterFixtures(tb)
	engine := execsim.Hive()
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
			Engine:    execsim.Hive(),
			Pricing:   cost.DefaultPricing(),
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

// benchArrivals is the seeded 36-query bursty stream the arbiter tests
// replay; every iteration re-runs the identical workload.
func benchArrivals(tb testing.TB, policy scheduler.Policy) []arbiter.Arrival {
	tb.Helper()
	trace, err := cloud.GenerateTrace(cloud.TraceConfig{
		Seed:                42,
		Arrivals:            36,
		MeanIntervalSeconds: 30,
		Shape:               cloud.Bursty,
		BurstSize:           6,
		Tenants:             []cloud.Share{{Name: "etl", Weight: 2}, {Name: "bi", Weight: 1}, {Name: "adhoc", Weight: 1}},
		Mix: []cloud.Share{
			{Name: workload.Q12, Weight: 4},
			{Name: workload.Q3, Weight: 3},
			{Name: workload.Q2, Weight: 2},
			{Name: workload.All, Weight: 1},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return arbiter.Arrivals(trace, policy)
}

// BenchmarkArbiterWorkload replays the whole seeded stream through a
// fresh arbiter per iteration — arrival sorting, fair-share admission,
// re-optimization, pool bookkeeping and outcome recording end to end.
func BenchmarkArbiterWorkload(b *testing.B) {
	for _, policy := range []scheduler.Policy{scheduler.Wait, scheduler.Reoptimize} {
		b.Run(policy.String(), func(b *testing.B) {
			arrivals := benchArrivals(b, policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := newBenchArbiter(b)
				b.StartTimer()
				if _, err := a.Run(arrivals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
