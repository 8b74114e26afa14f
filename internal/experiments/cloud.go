package experiments

import (
	"fmt"

	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/stats"
	"raqo/internal/units"
	"raqo/internal/workload"
)

// cloudSetup is one priced-capacity configuration under comparison.
type cloudSetup struct {
	name       string
	market     func() cloud.Market
	autoscaler cloud.AutoscalerConfig
}

// cloudTrace is one arrival trace plus its fault environment, shared
// bit-identically by every setup.
type cloudTrace struct {
	name   string
	trace  cloud.TraceConfig
	faults cloud.FaultConfig
}

// cloudSetups compares three procurement strategies with the same peak
// capability (36 reliable containers vs 12 reliable + up to 24/48 spot):
// peak-provisioned on-demand, a fixed on-demand+spot split with
// preemption recovery, and the same split with the elastic spot class
// driven by the budget-aware autoscaler.
func cloudSetups() []cloudSetup {
	return []cloudSetup{
		{
			name:   "ondemand-only",
			market: func() cloud.Market { return cloud.DefaultMarket(36, 0, 0) },
		},
		{
			name:   "spot+recovery",
			market: func() cloud.Market { return cloud.DefaultMarket(12, 24, 0.7) },
		},
		{
			name: "spot+autoscaler",
			market: func() cloud.Market {
				m := cloud.DefaultMarket(12, 24, 0.7)
				m.Classes[1].Count = 8
				m.Classes[1].MinCount = 4
				m.Classes[1].MaxCount = 60
				return m
			},
			autoscaler: cloud.AutoscalerConfig{Enabled: true, Step: 12, HighUtilization: 0.7},
		},
	}
}

// cloudTraces are the three evaluation regimes: a diurnal day/night
// curve, bursty pipeline waves, and a steady stream with an injected
// mid-run preemption storm plus OOM and straggler faults.
func cloudTraces() []cloudTrace {
	base := func(seed int64, shape cloud.Shape) cloud.TraceConfig {
		return cloud.TraceConfig{
			Seed:                seed,
			Arrivals:            48,
			MeanIntervalSeconds: 900,
			Shape:               shape,
			PeriodSeconds:       14400,
			Tenants:             tenantShares(),
			Mix:                 queryMix(),
			Recovery:            cloud.RecoverReoptimize,
		}
	}
	light := cloud.FaultConfig{Seed: 7, SpotMeanLifeSeconds: 14400, StragglerProb: 0.1}
	stormy := cloud.FaultConfig{
		Seed:                7,
		SpotMeanLifeSeconds: 7200,
		StragglerProb:       0.1,
		OOMProb:             0.05,
		StormAtSeconds:      3600,
		StormFraction:       0.5,
	}
	return []cloudTrace{
		{name: "diurnal", trace: base(42, cloud.Diurnal), faults: light},
		{name: "bursty", trace: base(43, cloud.Bursty), faults: light},
		{name: "failure", trace: base(44, cloud.Steady), faults: stormy},
	}
}

// cloudRun is the measured outcome of one (setup, trace) cell.
type cloudRun struct {
	setup     string
	trace     string
	stats     cloud.Stats
	latencies []float64 // finish - arrival per completed query
	spend     units.USD
	perQuery  units.USD
	makespan  float64
}

// runCloudCell replays one trace through one setup.
func runCloudCell(models *cost.Models, queries map[string]*plan.Query, s cloudSetup, tr cloudTrace) (*cloudRun, error) {
	sim, err := simWorkload(models, queries)
	if err != nil {
		return nil, err
	}
	a, err := cloud.New(cloud.Config{
		Workload:   sim,
		Market:     s.market(),
		Faults:     tr.faults,
		Autoscaler: s.autoscaler,
	})
	if err != nil {
		return nil, err
	}
	arrivals, err := cloud.GenerateTrace(tr.trace)
	if err != nil {
		return nil, err
	}
	outcomes, err := a.Run(arrivals)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", s.name, tr.name, err)
	}
	if err := a.Drain(); err != nil {
		return nil, fmt.Errorf("%s/%s drain: %w", s.name, tr.name, err)
	}
	outcomes = a.Completed()
	st := a.Stats()
	run := &cloudRun{setup: s.name, trace: tr.name, stats: st, spend: st.SpendUSD}
	for _, o := range outcomes {
		run.latencies = append(run.latencies, o.Finish-o.Arrival)
		if o.Finish > run.makespan {
			run.makespan = o.Finish
		}
	}
	if n := len(outcomes); n > 0 {
		run.perQuery = run.spend / units.USD(n)
	}

	// The comparison is only honest if every setup finishes the whole
	// stream: nothing lost, nothing rejected, everything drained.
	if st.Lost != 0 {
		return nil, fmt.Errorf("%s/%s: lost %d queries", s.name, tr.name, st.Lost)
	}
	if st.Rejected != 0 || len(outcomes) != tr.trace.Arrivals {
		return nil, fmt.Errorf("%s/%s: %d completed, %d rejected of %d arrivals",
			s.name, tr.name, len(outcomes), st.Rejected, tr.trace.Arrivals)
	}
	if st.Queued != 0 || st.InFlight != 0 {
		return nil, fmt.Errorf("%s/%s: drained with queued=%d inflight=%d", s.name, tr.name, st.Queued, st.InFlight)
	}
	return run, nil
}

// CloudEconomics regenerates the cloud-economics report: the same three
// seeded traces (diurnal, bursty, failure-injected) replayed through
// three procurement strategies, comparing dollars spent and P95 latency.
// The headline is $-per-workload saved at equal-or-better P95 by
// spot+autoscaler over peak-provisioned on-demand. Self-asserting and
// byte-identical across runs.
func CloudEconomics() (*Report, error) {
	models, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		return nil, err
	}
	queries, err := workload.TPCHQueries(catalog.TPCH(100))
	if err != nil {
		return nil, err
	}
	setups := cloudSetups()
	traces := cloudTraces()
	runs := make(map[string]map[string]*cloudRun, len(traces)) // trace -> setup -> run
	for _, tr := range traces {
		runs[tr.name] = make(map[string]*cloudRun, len(setups))
		for _, s := range setups {
			run, err := runCloudCell(models, queries, s, tr)
			if err != nil {
				return nil, err
			}
			runs[tr.name][s.name] = run
		}
	}

	summary := Table{
		Title: "Cost and latency per trace and procurement strategy (identical seeded streams)",
		Columns: []string{"trace", "setup", "completed", "preempt", "storm", "oom", "recovered",
			"scale +/-", "spend $", "$ / query", "P95 s", "makespan s"},
	}
	for _, tr := range traces {
		for _, s := range setups {
			run := runs[tr.name][s.name]
			st := run.stats
			recovered := st.RecoveredReopt + st.RecoveredOnDem + st.RecoveredDegrade
			summary.AddRow(tr.name, s.name,
				fmt.Sprintf("%d", st.Completed),
				fmt.Sprintf("%d", st.Preemptions),
				fmt.Sprintf("%d", st.StormPreemptions),
				fmt.Sprintf("%d", st.OOMAborts),
				fmt.Sprintf("%d", recovered),
				fmt.Sprintf("%d/%d", st.ScaleUps, st.ScaleDowns),
				fmt.Sprintf("%.4f", float64(run.spend)),
				fmt.Sprintf("%.6f", float64(run.perQuery)),
				f1(stats.Percentile(run.latencies, 95)),
				f1(run.makespan))
		}
	}

	headline := Table{
		Title:   "Headline: spot+autoscaler vs ondemand-only at the P95",
		Columns: []string{"trace", "ondemand $/query", "autoscaler $/query", "saved %", "ondemand P95 s", "autoscaler P95 s"},
	}
	var odSpend, asSpend units.USD
	var odCompleted, asCompleted int
	var odLat, asLat []float64
	for _, tr := range traces {
		od := runs[tr.name]["ondemand-only"]
		as := runs[tr.name]["spot+autoscaler"]
		saved := (1 - float64(as.perQuery)/float64(od.perQuery)) * 100
		headline.AddRow(tr.name,
			fmt.Sprintf("%.6f", float64(od.perQuery)),
			fmt.Sprintf("%.6f", float64(as.perQuery)),
			f1(saved),
			f1(stats.Percentile(od.latencies, 95)),
			f1(stats.Percentile(as.latencies, 95)))
		odSpend += od.spend
		asSpend += as.spend
		odCompleted += od.stats.Completed
		asCompleted += as.stats.Completed
		odLat = append(odLat, od.latencies...)
		asLat = append(asLat, as.latencies...)

		// Per-trace headline assertion: elastic discounted capacity must be
		// cheaper than the peak-provisioned reliable fleet on every trace.
		if as.spend >= od.spend {
			return nil, fmt.Errorf("cloud: %s: autoscaler spent $%.4f >= ondemand $%.4f",
				tr.name, float64(as.spend), float64(od.spend))
		}
	}

	// Aggregate headline: cheaper per completed query at equal-or-better
	// P95 latency over the combined 144-query workload.
	odPer := float64(odSpend) / float64(odCompleted)
	asPer := float64(asSpend) / float64(asCompleted)
	odP95 := stats.Percentile(odLat, 95)
	asP95 := stats.Percentile(asLat, 95)
	if asPer >= odPer {
		return nil, fmt.Errorf("cloud: aggregate $/query %.6f did not beat ondemand %.6f", asPer, odPer)
	}
	if asP95 > odP95 {
		return nil, fmt.Errorf("cloud: aggregate P95 %.1fs worse than ondemand %.1fs", asP95, odP95)
	}

	// The failure trace must actually exercise the storm on the spot
	// setups: at least one running spot allocation revoked and recovered.
	for _, setup := range []string{"spot+recovery", "spot+autoscaler"} {
		st := runs["failure"][setup].stats
		if st.StormPreemptions < 1 {
			return nil, fmt.Errorf("cloud: %s failure trace: storm revoked nothing", setup)
		}
	}

	return &Report{
		ID:     "cloud",
		Title:  "Cloud economics: priced capacity, spot preemption and the budget-aware autoscaler",
		Tables: []Table{summary, headline},
		Notes: []string{
			"not a paper figure: the resource-optimization agenda priced in dollars — elastic discounted capacity under the arbiter",
			fmt.Sprintf("spot+autoscaler completes the combined 144-query workload at $%.6f/query vs $%.6f/query on peak-provisioned on-demand (%.1f%% saved) at equal-or-better P95 (%.1fs vs %.1fs)",
				asPer, odPer, (1-asPer/odPer)*100, asP95, odP95),
			"every preempted query finishes via its recovery policy: zero lost queries in all nine runs",
			"virtual-clock discrete-event simulation; byte-identical across runs",
		},
	}, nil
}
