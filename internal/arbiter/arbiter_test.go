package arbiter_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"raqo/internal/arbiter"
	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/stats"
	"raqo/internal/telemetry"
	"raqo/internal/workload"
)

var (
	setupOnce    sync.Once
	trainedHive  *cost.Models
	tpchQueries  map[string]*plan.Query
	setupFailure error
)

func testFixtures(t testing.TB) (*cost.Models, map[string]*plan.Query) {
	t.Helper()
	setupOnce.Do(func() {
		trainedHive, setupFailure = workload.TrainedModels(execsim.Hive())
		if setupFailure != nil {
			return
		}
		tpchQueries, setupFailure = workload.TPCHQueries(catalog.TPCH(100))
	})
	if setupFailure != nil {
		t.Fatal(setupFailure)
	}
	return trainedHive, tpchQueries
}

func newOptimizer(t testing.TB, models *cost.Models) *core.Optimizer {
	t.Helper()
	engine := execsim.Hive()
	opt, err := core.New(cluster.Default(), core.Options{
		Models:       models,
		Engine:       &engine,
		MemoizeCosts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func testConfig(t testing.TB) arbiter.Config {
	t.Helper()
	models, queries := testFixtures(t)
	return arbiter.Config{
		Workload: cloud.Workload{
			Base:      cluster.Default(),
			Engine:    execsim.Hive(),
			Pricing:   cost.DefaultPricing(),
			Optimizer: newOptimizer(t, models),
			Queries:   queries,
			Tenants: []arbiter.TenantConfig{
				{Name: "etl", Weight: 2},
				{Name: "bi", Weight: 1},
				{Name: "adhoc", Weight: 1},
			},
		},
		Capacity: 100,
	}
}

// testWorkload is the seeded 36-query stream of bursty waves over the
// three tenants and the TPC-H mix.
func testWorkload() cloud.TraceConfig {
	return cloud.TraceConfig{
		Seed:                42,
		Arrivals:            36,
		MeanIntervalSeconds: 30,
		Shape:               cloud.Bursty,
		BurstSize:           6,
		Tenants: []cloud.Share{
			{Name: "etl", Weight: 2}, {Name: "bi", Weight: 1}, {Name: "adhoc", Weight: 1},
		},
		Mix: []cloud.Share{
			{Name: workload.Q12, Weight: 4},
			{Name: workload.Q3, Weight: 3},
			{Name: workload.Q2, Weight: 2},
			{Name: workload.All, Weight: 1},
		},
	}
}

// arrivals draws a trace and submits every arrival under one policy.
func arrivals(t testing.TB, wl cloud.TraceConfig, policy scheduler.Policy) []arbiter.Arrival {
	t.Helper()
	trace, err := cloud.GenerateTrace(wl)
	if err != nil {
		t.Fatal(err)
	}
	return arbiter.Arrivals(trace, policy)
}

func runWorkload(t *testing.T, policy scheduler.Policy) ([]arbiter.Outcome, arbiter.Stats) {
	t.Helper()
	a, err := arbiter.New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := a.Run(arrivals(t, testWorkload(), policy))
	if err != nil {
		t.Fatal(err)
	}
	return outcomes, a.Stats()
}

func TestRunCompletesWorkload(t *testing.T) {
	for _, policy := range []scheduler.Policy{scheduler.Wait, scheduler.Degrade, scheduler.Reoptimize} {
		outcomes, st := runWorkload(t, policy)
		if int64(len(outcomes))+st.Rejected+st.Failed != 36 {
			t.Fatalf("%v: %d completed + %d rejected + %d failed != 36 arrivals",
				policy, len(outcomes), st.Rejected, st.Failed)
		}
		if st.Queued != 0 || st.InFlight != 0 {
			t.Fatalf("%v: drained arbiter has queued=%d inflight=%d", policy, st.Queued, st.InFlight)
		}
		if st.FreeContainers != 100 {
			t.Fatalf("%v: drained pool has %d free", policy, st.FreeContainers)
		}
		for i, o := range outcomes {
			if o.QueueSeconds < 0 || o.ExecSeconds <= 0 {
				t.Fatalf("%v outcome %d: queue=%g exec=%g", policy, i, o.QueueSeconds, o.ExecSeconds)
			}
			if o.Start < o.Arrival || o.Finish <= o.Start {
				t.Fatalf("%v outcome %d: arrival=%g start=%g finish=%g", policy, i, o.Arrival, o.Start, o.Finish)
			}
			if o.Containers < 1 || o.Containers > 100 {
				t.Fatalf("%v outcome %d: gang %d", policy, i, o.Containers)
			}
			if o.Policy != policy {
				t.Fatalf("%v outcome %d carries policy %v", policy, i, o.Policy)
			}
		}
	}
}

// TestDeterministicAcrossRuns is the arbiter's bit-identical bar: the
// same seeded workload yields deeply equal outcome streams on repeat runs.
func TestDeterministicAcrossRuns(t *testing.T) {
	for _, policy := range []scheduler.Policy{scheduler.Wait, scheduler.Reoptimize} {
		base, baseStats := runWorkload(t, policy)
		again, againStats := runWorkload(t, policy)
		if !reflect.DeepEqual(base, again) {
			t.Fatalf("%v: repeat run diverged", policy)
		}
		if baseStats != againStats {
			t.Fatalf("%v: repeat stats diverged: %+v vs %+v", policy, baseStats, againStats)
		}
	}
}

// TestReoptimizeCollapsesQueueRatio is the paper's argument end to end:
// re-optimizing under currently free conditions must cut the tail
// queue-time/run-time ratio versus waiting for the submitted gang.
func TestReoptimizeCollapsesQueueRatio(t *testing.T) {
	wait, _ := runWorkload(t, scheduler.Wait)
	reopt, st := runWorkload(t, scheduler.Reoptimize)
	p95 := func(outs []arbiter.Outcome) float64 {
		var rs []float64
		for _, o := range outs {
			rs = append(rs, o.Ratio())
		}
		return stats.Percentile(rs, 95)
	}
	pw, pr := p95(wait), p95(reopt)
	if pr >= pw {
		t.Fatalf("reoptimize P95 ratio %g not below wait %g", pr, pw)
	}
	if st.Replanned == 0 {
		t.Fatal("reoptimize run never replanned")
	}
}

func TestMaxInFlightBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []arbiter.TenantConfig{{Name: "etl", MaxInFlight: 2}}
	a, err := arbiter.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := testWorkload()
	wl.Tenants = []cloud.Share{{Name: "etl", Weight: 1}}
	wl.Arrivals = 16
	outcomes, err := a.Run(arrivals(t, wl, scheduler.Reoptimize))
	if err != nil {
		t.Fatal(err)
	}
	// No instant may have more than two of the tenant's queries running;
	// concurrency only changes at admission instants, so checking each
	// Start covers every instant.
	for i, o := range outcomes {
		concurrent := 0
		for _, p := range outcomes {
			if p.Start <= o.Start && o.Start < p.Finish {
				concurrent++
			}
		}
		if concurrent > 2 {
			t.Fatalf("outcome %d has %d concurrent runs, MaxInFlight=2", i, concurrent)
		}
	}
}

func TestMaxQueueSheds(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []arbiter.TenantConfig{{Name: "etl", MaxQueue: 1}}
	a, err := arbiter.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A burst of simultaneous arrivals: the pool fits roughly one at a
	// time, so a queue bound of 1 must shed most of the burst.
	var arrivals []arbiter.Arrival
	for i := 0; i < 8; i++ {
		arrivals = append(arrivals, arbiter.Arrival{
			Tenant: "etl", Query: workload.Q3, Time: 0, Policy: scheduler.Wait,
		})
	}
	outcomes, err := a.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Rejected == 0 {
		t.Fatal("queue bound of 1 under an 8-wide burst shed nothing")
	}
	if int64(len(outcomes))+st.Rejected != 8 {
		t.Fatalf("%d completed + %d rejected != 8", len(outcomes), st.Rejected)
	}
}

func TestSubmitValidation(t *testing.T) {
	a, err := arbiter.New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var unknown *arbiter.UnknownError
	if _, err := a.SubmitWait("nope", workload.Q12, scheduler.Wait); !errors.As(err, &unknown) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if _, err := a.SubmitWait("etl", "Q99", scheduler.Wait); !errors.As(err, &unknown) {
		t.Fatalf("unknown query: %v", err)
	}
	if _, err := a.SubmitWait("etl", workload.Q12, scheduler.Policy(9)); !errors.As(err, &unknown) {
		t.Fatalf("unknown policy: %v", err)
	}
}

func TestWaitOversizedRejected(t *testing.T) {
	cfg := testConfig(t)
	// A pool smaller than any optimal gang: Wait submissions would queue
	// forever, so they must be rejected up front.
	cfg.Capacity = cluster.Default().MinContainers
	a, err := arbiter.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.SubmitWait("etl", workload.All, scheduler.Wait)
	if !errors.Is(err, arbiter.ErrRejected) {
		t.Fatalf("oversized Wait submission: got %v, want ErrRejected", err)
	}
	// The same query under Reoptimize is admissible: it replans to fit.
	out, err := a.SubmitWait("etl", workload.All, scheduler.Reoptimize)
	if err != nil {
		t.Fatal(err)
	}
	if out.Containers > cfg.Capacity {
		t.Fatalf("admitted gang %d exceeds capacity %d", out.Containers, cfg.Capacity)
	}
}

func TestSubmitWaitOnline(t *testing.T) {
	cfg := testConfig(t)
	cfg.Metrics = arbiter.NewMetrics(telemetry.NewRegistry())
	a, err := arbiter.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var outs []*arbiter.Outcome
	for i := 0; i < 6; i++ {
		out, err := a.SubmitWait("etl", workload.Q3, scheduler.Reoptimize)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	// The gangs stay held until their virtual finishes, so later submits
	// contend: the clock must have advanced past the first submission.
	if a.Now() == 0 && outs[len(outs)-1].QueueSeconds == 0 && outs[len(outs)-1].Start == 0 {
		t.Fatal("six large submissions never contended")
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Completed != 6 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("drained stats: %+v", st)
	}
	if st.AdmittedReopt != 6 {
		t.Fatalf("admitted[reoptimize] = %d, want 6", st.AdmittedReopt)
	}
	if got := cfg.Metrics.Admissions.With("reoptimize").Value(); got != 6 {
		t.Fatalf("admissions metric = %d, want 6", got)
	}
	if cfg.Metrics.QueueWait.Count() != 6 {
		t.Fatalf("queue-wait observations = %d, want 6", cfg.Metrics.QueueWait.Count())
	}
	if cfg.Metrics.Occupancy.Value() != 0 {
		t.Fatalf("drained occupancy gauge = %d", cfg.Metrics.Occupancy.Value())
	}
}

// skewedRecalConfig is a single-tenant arbiter planning with deliberately
// 4x-skewed cost models, wired so that simulated completions stream into
// the returned recalibrator and every model swap reaches the optimizer.
func skewedRecalConfig(t testing.TB) (arbiter.Config, *feedback.Recalibrator) {
	t.Helper()
	truth, queries := testFixtures(t)
	skewed := cost.NewModels()
	for _, algo := range plan.Algos {
		m, ok := truth.For(algo)
		if !ok {
			continue
		}
		reg, ok := m.(*cost.Regression)
		if !ok {
			t.Fatalf("trained model for %s is not a regression", algo)
		}
		lm := &stats.LinearModel{
			Coef:      append([]float64(nil), reg.Linear.Coef...),
			Intercept: reg.Linear.Intercept * 4,
		}
		for i := range lm.Coef {
			lm.Coef[i] *= 4
		}
		skewed.Set(algo, cost.NewRegression("skew-"+algo.String(), lm))
	}
	rec := feedback.NewRecalibrator(
		feedback.NewStore(1024, nil),
		feedback.NewDetector(feedback.DriftConfig{MinSamples: 8}),
		skewed,
	)
	engine := execsim.Hive()
	opt, err := core.New(cluster.Default(), core.Options{Models: skewed, Engine: &engine, MemoizeCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	rec.OnSwap(func(_ feedback.Recalibration, info *feedback.ModelInfo) {
		if err := opt.SetModels(info.Models); err != nil {
			t.Errorf("SetModels: %v", err)
		}
	})
	return arbiter.Config{
		Workload: cloud.Workload{
			Base:      cluster.Default(),
			Engine:    execsim.Hive(),
			Pricing:   cost.DefaultPricing(),
			Optimizer: opt,
			Queries:   queries,
			Tenants:   []arbiter.TenantConfig{{Name: "etl"}},
		},
		Capacity:   100,
		Feedback:   &feedback.Observer{Recal: rec},
		RecalEvery: 4,
	}, rec
}

// singleTenantWorkload is the seeded stream of testWorkload with every
// arrival on the one tenant of skewedRecalConfig.
func singleTenantWorkload() cloud.TraceConfig {
	wl := testWorkload()
	wl.Tenants = []cloud.Share{{Name: "etl", Weight: 1}}
	return wl
}

// TestFeedbackRecalibratesMidWorkload wires a deliberately skewed cost
// model into the arbiter: simulated completions stream into the
// recalibrator at their virtual finish times, drift fires mid-workload,
// and the model version advances while the workload is still running.
func TestFeedbackRecalibratesMidWorkload(t *testing.T) {
	cfg, rec := skewedRecalConfig(t)
	a, err := arbiter.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(arrivals(t, singleTenantWorkload(), scheduler.Reoptimize)); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Recals == 0 {
		t.Fatal("4x-skewed models never recalibrated mid-workload")
	}
	if v := rec.Current().Version; v < 2 {
		t.Fatalf("model version %d, want >= 2", v)
	}
	if rec.Store().Len() == 0 {
		t.Fatal("no observations reached the feedback store")
	}
}

// TestGenerateArrivalsDeterministic: the arbiter's streams are the
// cloud trace generator's — the same config draws the same stream, and
// policy runs differ only in the policy field.
func TestGenerateArrivalsDeterministic(t *testing.T) {
	a := arrivals(t, testWorkload(), scheduler.Wait)
	if b := arrivals(t, testWorkload(), scheduler.Wait); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different arrival streams")
	}
	c := arrivals(t, testWorkload(), scheduler.Reoptimize)
	for i := range a {
		if a[i].Tenant != c[i].Tenant || a[i].Query != c[i].Query || a[i].Time != c[i].Time || c[i].Policy != scheduler.Reoptimize {
			t.Fatalf("arrival %d differs beyond policy: %+v vs %+v", i, a[i], c[i])
		}
	}
	if _, err := cloud.GenerateTrace(cloud.TraceConfig{}); err == nil {
		t.Fatal("empty workload config accepted")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Capacity = 0
	if _, err := arbiter.New(cfg); err == nil {
		t.Fatal("zero capacity accepted")
	}
	cfg = testConfig(t)
	cfg.Optimizer = nil
	if _, err := arbiter.New(cfg); err == nil {
		t.Fatal("nil optimizer accepted")
	}
	cfg = testConfig(t)
	cfg.Tenants = nil
	if _, err := arbiter.New(cfg); err == nil {
		t.Fatal("no tenants accepted")
	}
	cfg = testConfig(t)
	cfg.Tenants = []arbiter.TenantConfig{{Name: "a"}, {Name: "a"}}
	if _, err := arbiter.New(cfg); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
}
