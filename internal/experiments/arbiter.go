package experiments

import (
	"fmt"

	"raqo/internal/arbiter"
	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/stats"
	"raqo/internal/workload"
)

// arbiterPolicies are the compared scheduling policies, in report order.
var arbiterPolicies = []scheduler.Policy{scheduler.Wait, scheduler.Degrade, scheduler.Reoptimize}

// ArbiterWorkload replays one seeded multi-tenant workload through the
// shared-cluster arbiter under each scheduling policy and reports the
// Figure 1 queue-time/run-time CDF per policy: static allocation (Wait)
// reproduces the paper's pathology — jobs wait as long as they run —
// while adaptive RAQO (Reoptimize) re-plans each query under the
// currently free conditions and collapses the ratio. The report is
// self-asserting: it fails unless Reoptimize cuts the P95 ratio versus
// Wait on the identical arrival stream.
func ArbiterWorkload() (*Report, error) {
	models, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		return nil, err
	}
	queries, err := workload.TPCHQueries(catalog.TPCH(100))
	if err != nil {
		return nil, err
	}
	trace, err := cloud.GenerateTrace(cloud.TraceConfig{
		Seed:                42,
		Arrivals:            60,
		MeanIntervalSeconds: 60,
		Shape:               cloud.Bursty,
		BurstSize:           10,
		Tenants:             tenantShares(),
		Mix:                 queryMix(),
	})
	if err != nil {
		return nil, err
	}

	type policyRun struct {
		policy   scheduler.Policy
		outcomes []arbiter.Outcome
		stats    arbiter.Stats
		ratios   []float64
	}
	runs := make([]policyRun, 0, len(arbiterPolicies))
	for _, policy := range arbiterPolicies {
		sim, err := simWorkload(models, queries)
		if err != nil {
			return nil, err
		}
		a, err := arbiter.New(arbiter.Config{Workload: sim, Capacity: 100})
		if err != nil {
			return nil, err
		}
		arrivals := arbiter.Arrivals(trace, policy)
		outcomes, err := a.Run(arrivals)
		if err != nil {
			return nil, fmt.Errorf("policy %v: %w", policy, err)
		}
		run := policyRun{policy: policy, outcomes: outcomes, stats: a.Stats()}
		for _, o := range outcomes {
			run.ratios = append(run.ratios, o.Ratio())
		}
		runs = append(runs, run)
	}

	summary := Table{
		Title: "Per-policy workload summary (identical seeded arrival stream)",
		Columns: []string{"policy", "completed", "replanned", "degraded",
			"mean queue s", "mean exec s", "P95 queue/run", "frac >= 1x", "makespan s"},
	}
	for _, run := range runs {
		meanQ, meanE, atLeast1, makespan := 0.0, 0.0, 0.0, 0.0
		for _, o := range run.outcomes {
			meanQ += o.QueueSeconds
			meanE += o.ExecSeconds
			if o.Ratio() >= 1 {
				atLeast1++
			}
			if o.Finish > makespan {
				makespan = o.Finish
			}
		}
		n := float64(len(run.outcomes))
		if n > 0 {
			meanQ /= n
			meanE /= n
			atLeast1 /= n
		}
		summary.AddRow(run.policy.String(),
			fmt.Sprintf("%d", len(run.outcomes)),
			fmt.Sprintf("%d", run.stats.Replanned),
			fmt.Sprintf("%d", run.stats.Degraded),
			f1(meanQ), f1(meanE),
			f2(stats.Percentile(run.ratios, 95)),
			f3(atLeast1), f1(makespan))
	}

	cdf := Table{
		Title:   "Queue-time / run-time ratio by percentile (Fig 1 series per policy)",
		Columns: []string{"percentile", "wait", "degrade", "reoptimize"},
	}
	for _, p := range []float64{25, 50, 75, 90, 95, 99, 100} {
		row := []string{f1(p)}
		for _, run := range runs {
			row = append(row, f2(stats.Percentile(run.ratios, p)))
		}
		cdf.AddRow(row...)
	}

	waitP95 := stats.Percentile(runs[0].ratios, 95)
	reoptP95 := stats.Percentile(runs[2].ratios, 95)
	if reoptP95 >= waitP95 {
		return nil, fmt.Errorf("arbiter: adaptive P95 queue/run ratio %.2f did not improve on static %.2f", reoptP95, waitP95)
	}
	if runs[2].stats.Replanned == 0 {
		return nil, fmt.Errorf("arbiter: reoptimize run never replanned")
	}

	return &Report{
		ID:     "arbiter",
		Title:  "Workload arbitration: static allocation vs adaptive re-optimization on a shared cluster",
		Tables: []Table{summary, cdf},
		Notes: []string{
			"not a paper figure: the Section VIII 'interaction with the DAG scheduler' agenda at workload scale",
			fmt.Sprintf("adaptive RAQO cuts the P95 queue/run ratio from %.2f (wait) to %.2f (reoptimize) on the same 60-query stream", waitP95, reoptP95),
			"wait fixes the joint plan at submission (Fig 1 pathology); reoptimize re-plans under the currently free conditions at admission",
			"virtual-clock discrete-event simulation; byte-identical across runs",
		},
	}, nil
}

// simWorkload is what the arbiter, history and cloud reports admit: the
// TPC-H queries from three tenants on the default cluster, planned
// memory-aware by a fresh optimizer over models.
func simWorkload(models *cost.Models, queries map[string]*plan.Query) (cloud.Workload, error) {
	engine := execsim.Hive()
	opt, err := core.New(cluster.Default(), core.Options{Models: models, Engine: &engine, MemoizeCosts: true})
	if err != nil {
		return cloud.Workload{}, err
	}
	return cloud.Workload{
		Base:      cluster.Default(),
		Engine:    engine,
		Pricing:   cost.DefaultPricing(),
		Optimizer: opt,
		Queries:   queries,
		Tenants: []cloud.TenantConfig{
			{Name: "etl", Weight: 2},
			{Name: "bi", Weight: 1},
			{Name: "adhoc", Weight: 1},
		},
	}, nil
}

// tenantShares weights the arrivals over simWorkload's tenants.
func tenantShares() []cloud.Share {
	return []cloud.Share{{Name: "etl", Weight: 2}, {Name: "bi", Weight: 1}, {Name: "adhoc", Weight: 1}}
}

// queryMix is the TPC-H query mix of the arbiter and cloud reports.
func queryMix() []cloud.Share {
	return []cloud.Share{
		{Name: workload.Q12, Weight: 4},
		{Name: workload.Q3, Weight: 3},
		{Name: workload.Q2, Weight: 2},
		{Name: workload.All, Weight: 1},
	}
}
