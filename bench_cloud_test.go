// Benchmarks for the cloud arbiter: the online admission path and one
// seeded fault draw. Run with:
//
//	go test -bench 'Cloud|InjectorDraw' -benchtime=0.2s .
package raqo_test

import (
	"testing"

	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/workload"
)

// newBenchCloud builds a two-tier 12+24 market arbiter with seeded spot
// interruption.
func newBenchCloud(tb testing.TB) *cloud.Arbiter {
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
	a, err := cloud.New(cloud.Config{
		Workload: cloud.Workload{
			Base:      cluster.Default(),
			Optimizer: opt,
			Queries:   queries,
			Tenants: []cloud.TenantConfig{
				{Name: "etl", Weight: 2},
				{Name: "bi", Weight: 1},
				{Name: "adhoc", Weight: 1},
			},
		},
		Market: cloud.DefaultMarket(12, 24, 0.7),
		Faults: cloud.FaultConfig{Seed: 7, SpotMeanLifeSeconds: 7200},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// BenchmarkCloudSubmitWait times one SubmitWait round trip on a warm
// priced pool with seeded spot interruption: the cost POST
// /v1/cloud/submit pays per request on top of HTTP, its fault draw
// included.
func BenchmarkCloudSubmitWait(b *testing.B) {
	a := newBenchCloud(b)
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
