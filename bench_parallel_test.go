// Benchmarks for the concurrent optimize path: the batch API, which runs
// one planning call per query on a bounded pool, and resource-plan cache
// contention. Run with:
//
//	go test -run '^$' -bench='OptimizeBatch|CacheContention' -benchmem -cpu 1,2
package raqo_test

import (
	"fmt"
	"testing"

	"raqo"
	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/resource"
)

// BenchmarkOptimizeBatch measures the multi-query batch API over the whole
// TPC-H evaluation workload at increasing inter-query parallelism.
func BenchmarkOptimizeBatch(b *testing.B) {
	sch := raqo.TPCH(100)
	var queries []*raqo.Query
	for _, name := range []string{"Q12", "Q3", "Q2", "All"} {
		q, err := raqo.TPCHQuery(sch, name)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, parallel := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			benchBatch(b, queries, parallel)
		})
	}
}

func benchBatch(b *testing.B, queries []*raqo.Query, parallel int) {
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.OptimizeBatch(queries, parallel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheContention hammers a warm resource-plan cache from 8
// goroutines; run it at -cpu 1,2 so the read lock is shared across procs.
func BenchmarkCacheContention(b *testing.B) {
	const keys = 64
	c := &resource.Cache{
		Inner:       &resource.HillClimb{},
		Mode:        resource.NearestNeighbor,
		ThresholdGB: 0.1,
	}
	m := cost.PaperSMJ()
	cond := cluster.Default()
	for i := 0; i < keys; i++ { // warm every key so the loop measures lookups
		if _, err := c.Plan(m, float64(i)*0.157, cond); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.Plan(m, float64(i%keys)*0.157, cond); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
