package experiments

import (
	"fmt"
	"os"
	"slices"

	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/workload"
)

// HistoryObservability drives a seeded ~50-virtual-hour multi-tenant
// workload through the arbiter with a history store attached, then shows
// what the long-horizon layer adds over the windowed drift detector: the
// store's day-scale shape, per-tenant hourly rollups, and a drift check
// that stays quiet on the stable stream but fires once an hour of
// degraded predictions lands on top of the healthy day-scale baseline —
// the slow-burn regime a short window normalizes away. The report is
// self-asserting on all three outcomes and on restart survival (a fresh
// detector over a reopened store sees the same drift).
func HistoryObservability() (*Report, error) {
	models, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		return nil, err
	}
	queries, err := workload.TPCHQueries(catalog.TPCH(100))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "raqo-history-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := history.Open(dir, history.Config{SegmentMaxBytes: 64 << 10, RawRetention: 6 * 3600})
	if err != nil {
		return nil, err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()

	// MinRecent is the separator of the demo: one stable hour carries only
	// a handful of completions (arrivals every ~10 virtual minutes), far
	// under it, while the injected degradation delivers hundreds.
	lhCfg := feedback.LongHorizonConfig{MinRecent: 32, MinBaseline: 64}
	det := feedback.NewDetector(feedback.DriftConfig{})
	det.SetRecorder(st)
	rec := feedback.NewRecalibrator(feedback.NewStore(1024, nil), det, models)

	sim, err := simWorkload(models, queries)
	if err != nil {
		return nil, err
	}
	cfg, err := cloud.SharedCluster(sim, 100)
	if err != nil {
		return nil, err
	}
	cfg.Hooks.Completed, _ = cloud.FeedbackHook(&feedback.Observer{Recal: rec}, st, 0)
	a, err := cloud.New(cfg)
	if err != nil {
		return nil, err
	}
	trace, err := cloud.GenerateTrace(cloud.TraceConfig{
		Seed:                42,
		Arrivals:            300,
		MeanIntervalSeconds: 600, // ~50 virtual hours of arrivals
		Shape:               cloud.Bursty,
		BurstSize:           10,
		Tenants:             tenantShares(),
		Mix:                 queryMix(),
	})
	if err != nil {
		return nil, err
	}
	// GenerateTrace stamps every arrival Reoptimize.
	if _, err := a.Run(trace); err != nil {
		return nil, err
	}
	if err := st.Commit(); err != nil {
		return nil, err
	}
	now := int64(a.Now())
	shape := st.Stats()
	if shape.CommittedTotal == 0 {
		return nil, fmt.Errorf("history: workload recorded no points")
	}
	if shape.HighWater < 24*3600 {
		return nil, fmt.Errorf("history: workload spans only %d virtual seconds, want a day+", shape.HighWater)
	}

	shapeTbl := Table{
		Title:   "History store shape after the ~50h virtual workload",
		Columns: []string{"series", "points", "sealed segs", "retained segs", "1m buckets", "1h buckets", "high water h"},
	}
	shapeTbl.AddRow(
		fmt.Sprintf("%d", shape.Series),
		fmt.Sprintf("%d", shape.CommittedTotal),
		fmt.Sprintf("%d", shape.SealedTotal),
		fmt.Sprintf("%d", shape.RetainedTotal),
		fmt.Sprintf("%d", shape.Buckets1m),
		fmt.Sprintf("%d", shape.Buckets1h),
		f1(float64(shape.HighWater)/3600))

	rollTbl := Table{
		Title:   "Tenant etl execution seconds from the 1h rollups (6h windows)",
		Columns: []string{"window start h", "completions", "mean s", "p90 s", "max s"},
	}
	rows, err := st.Query("arbiter.exec_seconds.etl", 0, now, 6*3600)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		b := &rows[i]
		rollTbl.AddRow(f1(float64(b.Start)/3600),
			fmt.Sprintf("%d", b.Count), f1(b.Mean), f1(b.P90), f1(b.Max))
	}

	driftTable := func(title string, stats []feedback.LongHorizonStat) Table {
		t := Table{
			Title:   title,
			Columns: []string{"engine", "class", "recent p90 err", "baseline p90 err", "recent n", "baseline n", "drifted"},
		}
		for _, s := range stats {
			t.AddRow(s.Engine, s.Class, f3(s.RecentError), f3(s.BaselineError),
				fmt.Sprintf("%d", s.RecentN), fmt.Sprintf("%d", s.BaselineN),
				fmt.Sprintf("%v", s.Drifted))
		}
		return t
	}
	stable, err := feedback.LongHorizon(st, now, lhCfg)
	if err != nil {
		return nil, err
	}
	if len(stable) == 0 {
		return nil, fmt.Errorf("history: no long-horizon classes recorded")
	}
	for _, s := range stable {
		if s.Drifted {
			return nil, fmt.Errorf("history: stable workload flagged as drifted: %+v", s)
		}
	}
	stableTbl := driftTable("Long-horizon drift, stable stream (recent 1h vs preceding 24h)", stable)

	// One degraded hour on top of the day-scale baseline: predictions land
	// 3x off, versus the workload's own p90 error well under 1. The
	// windowed detector would slowly absorb this as the new normal;
	// against the rollup baseline it is unmissable.
	for ts := now; ts < now+3600; ts += 20 {
		det.Observe(feedback.Observation{
			Signature:        "degraded",
			Engine:           "hive",
			PredictedSeconds: 40,
			ObservedSeconds:  10,
			ObservedAt:       ts,
		})
	}
	if err := st.Commit(); err != nil {
		return nil, err
	}
	after, err := feedback.LongHorizon(st, now+3600, lhCfg)
	if err != nil {
		return nil, err
	}
	driftedClass := ""
	for _, s := range after {
		if s.Drifted {
			driftedClass = s.Engine + "/" + s.Class
		}
	}
	if driftedClass == "" {
		return nil, fmt.Errorf("history: degraded hour not flagged against day-scale baseline: %+v", after)
	}
	afterTbl := driftTable("Long-horizon drift, after one degraded hour", after)

	// Restart survival: the reopened store lists the persisted error series
	// and reaches the same verdict.
	if err := st.Close(); err != nil {
		return nil, err
	}
	st = nil
	st2, err := history.Open(dir, history.Config{SegmentMaxBytes: 64 << 10, RawRetention: 6 * 3600})
	if err != nil {
		return nil, err
	}
	defer st2.Close()
	after2, err := feedback.LongHorizon(st2, now+3600, lhCfg)
	if err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(after2, func(s feedback.LongHorizonStat) bool { return s.Drifted }) {
		return nil, fmt.Errorf("history: drift verdict lost across store reopen")
	}

	return &Report{
		ID:     "history",
		Title:  "Long-horizon observability: day-scale telemetry history behind drift detection",
		Tables: []Table{shapeTbl, rollTbl, stableTbl, afterTbl},
		Notes: []string{
			"not a paper figure: the persistence layer under the Section VIII continuous-operation agenda",
			"all timestamps are virtual arbiter time; the store never reads the wall clock, so files and verdicts are byte-reproducible",
			fmt.Sprintf("stable stream stays quiet; one degraded hour drifts %s against the preceding-day baseline", driftedClass),
			"the verdict survives a restart: feedback.LongHorizon over the reopened store reaches the same verdict",
		},
	}, nil
}
