// The trained models and TPC-H queries the root tests and benchmarks
// share.
package raqo_test

import (
	"sync"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cloud"
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
