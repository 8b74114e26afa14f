// Resource-plan cache contention: many goroutines asking one warm cache,
// whose one mutex covers every lookup (and the inner planner on a miss).
// Run with:
//
//	go test -run '^$' -bench=CacheContention -benchmem -cpu 1,2
package raqo_test

import (
	"testing"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/resource"
)

// BenchmarkCacheContention hammers a warm resource-plan cache from 8
// goroutines; run it at -cpu 1,2 so the mutex is contended across procs.
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
