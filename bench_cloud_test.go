// Benchmarks for the cloud arbiter: a full seeded priced-pool replay
// (static market and elastic+faulty market), the online admission path,
// one seeded fault draw and the online preempt-and-recover round trip.
// Run with:
//
//	go test -bench 'Cloud|InjectorDraw' -benchtime=0.2s .
package raqo_test

import (
	"sync"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/workload"
)

var (
	benchCloudOnce    sync.Once
	benchCloudModels  *cost.Models
	benchCloudQueries map[string]*plan.Query
	benchCloudErr     error
)

func benchCloudFixtures(tb testing.TB) (*cost.Models, map[string]*plan.Query) {
	tb.Helper()
	benchCloudOnce.Do(func() {
		benchCloudModels, benchCloudErr = workload.TrainedModels(execsim.Hive())
		if benchCloudErr != nil {
			return
		}
		benchCloudQueries, benchCloudErr = workload.TPCHQueries(catalog.TPCH(100))
	})
	if benchCloudErr != nil {
		tb.Fatal(benchCloudErr)
	}
	return benchCloudModels, benchCloudQueries
}

// newBenchCloud builds a two-tier 12+24 market arbiter; elastic puts the
// spot class under the autoscaler and faulty seeds spot interruption.
func newBenchCloud(tb testing.TB, elastic, faulty bool) *cloud.Arbiter {
	tb.Helper()
	models, queries := benchCloudFixtures(tb)
	engine := execsim.Hive()
	opt, err := core.New(cluster.Default(), core.Options{
		Models:       models,
		Engine:       &engine,
		MemoizeCosts: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	market := cloud.DefaultMarket(12, 24, 0.7)
	var scaler cloud.AutoscalerConfig
	if elastic {
		market.Classes[1].Count = 8
		market.Classes[1].MinCount = 4
		market.Classes[1].MaxCount = 48
		scaler = cloud.AutoscalerConfig{Enabled: true}
	}
	var faults cloud.FaultConfig
	if faulty {
		faults = cloud.FaultConfig{Seed: 7, SpotMeanLifeSeconds: 7200}
	}
	a, err := cloud.New(cloud.Config{
		Workload: cloud.Workload{
			Base:      cluster.Default(),
			Engine:    execsim.Hive(),
			Pricing:   cost.DefaultPricing(),
			Optimizer: opt,
			Queries:   queries,
			Tenants: []cloud.TenantConfig{
				{Name: "etl", Weight: 2},
				{Name: "bi", Weight: 1},
				{Name: "adhoc", Weight: 1},
			},
		},
		Market:     market,
		Faults:     faults,
		Autoscaler: scaler,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// benchCloudTrace is the seeded 24-query bursty stream every iteration
// replays identically.
func benchCloudTrace(tb testing.TB) []cloud.Arrival {
	tb.Helper()
	trace, err := cloud.GenerateTrace(cloud.TraceConfig{
		Seed:                42,
		Arrivals:            24,
		MeanIntervalSeconds: 600,
		Shape:               cloud.Bursty,
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
	return trace
}

// runBenchCloud replays the trace end to end and drains the pool.
func runBenchCloud(b *testing.B, a *cloud.Arbiter, trace []cloud.Arrival) {
	b.Helper()
	if _, err := a.Run(trace); err != nil {
		b.Fatal(err)
	}
	if err := a.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCloudWorkload replays the seeded stream through a fresh
// arbiter per iteration — admission over the class-preference order,
// priced-pool bookkeeping and (in the elastic case) the autoscaler loop
// plus seeded spot interruptions and their recoveries.
func BenchmarkCloudWorkload(b *testing.B) {
	for _, c := range []struct {
		name            string
		elastic, faulty bool
	}{
		{"static", false, false},
		{"autoscaler", true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			trace := benchCloudTrace(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := newBenchCloud(b, c.elastic, c.faulty)
				b.StartTimer()
				runBenchCloud(b, a, trace)
			}
		})
	}
}

// BenchmarkCloudPreemptRecover measures one full preemption-recovery
// round trip on a warm arbiter: admit a query onto spot, revoke it with
// a storm, and drain until the recovery policy has re-admitted and
// finished it.
func BenchmarkCloudPreemptRecover(b *testing.B) {
	a := newBenchCloud(b, false, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SubmitWait("etl", workload.Q12, cloud.RecoverReoptimize); err != nil {
			b.Fatal(err)
		}
		if n, err := a.PreemptFraction(1); err != nil || n != 1 {
			b.Fatalf("revoked %d, err %v", n, err)
		}
		if err := a.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloudSubmitWait is BenchmarkArbiterSubmitWait's counterpart on
// the priced pool with seeded spot interruption: one SubmitWait round trip
// on a warm arbiter, the cost POST /v1/cloud/submit pays per request on
// top of HTTP, its fault draw included.
func BenchmarkCloudSubmitWait(b *testing.B) {
	a := newBenchCloud(b, false, true)
	names := []string{workload.Q12, workload.Q3, workload.Q2}
	tenants := []string{"etl", "bi", "adhoc"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SubmitWait(tenants[i%len(tenants)], names[i%len(names)], cloud.RecoverReoptimize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInjectorDraw times one admission's fault draw with every fault
// process on: four values of the admission's math/rand stream.
func BenchmarkInjectorDraw(b *testing.B) {
	in, err := cloud.NewInjector(cloud.FaultConfig{Seed: 7, SpotMeanLifeSeconds: 7200, StragglerProb: 0.1, OOMProb: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDraw = in.Draw(int64(i), cloud.Spot, 100, 300)
	}
}

var benchDraw cloud.Draw
