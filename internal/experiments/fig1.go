package experiments

import (
	"math/rand"

	"raqo/internal/cluster"
)

// Figure1 reproduces the queue-time/run-time CDF of shared production
// clusters: a synthetic overloaded-cluster trace through the discrete-event
// simulator. The paper's headline: more than 80% of jobs wait at least as
// long as they execute; more than 20% wait at least 4x.
func Figure1(seed int64) (*Report, error) {
	jobs := cluster.GenerateTrace(rand.New(rand.NewSource(seed)))
	sim := &cluster.Simulator{Capacity: cluster.TraceCapacity}
	results, err := sim.Run(jobs)
	if err != nil {
		return nil, err
	}
	fractions, ratios := cluster.RatioCDF(results)

	tbl := Table{
		Title:   "Queue-time / run-time ratio CDF (simulated shared cluster)",
		Columns: []string{"fraction of jobs", "queue/run ratio"},
	}
	// Sample ~20 quantiles like the paper's plotted series.
	for i := 0; i < len(fractions); i += len(fractions)/20 + 1 {
		tbl.AddRow(f3(fractions[i]), f2(ratios[i]))
	}
	tbl.AddRow(f3(fractions[len(fractions)-1]), f2(ratios[len(ratios)-1]))

	summary := Table{
		Title:   "Headline fractions",
		Columns: []string{"metric", "value"},
	}
	summary.AddRow("fraction waiting >= 1x run time", f3(cluster.FractionAtLeast(results, 1)))
	summary.AddRow("fraction waiting >= 4x run time", f3(cluster.FractionAtLeast(results, 4)))
	summary.AddRow("jobs simulated", f1(float64(len(results))))

	return &Report{
		ID:     "fig1",
		Title:  "Varying resource availability on shared clusters (queue-time CDF)",
		Tables: []Table{summary, tbl},
		Notes: []string{
			"paper (production Microsoft traces): >80% of jobs wait >= their execution time; >20% wait >= 4x",
			"substitute: bursty pipeline waves (22 near-identical jobs each, several times cluster capacity), log-normal wave durations, FIFO gang scheduling",
		},
	}, nil
}
