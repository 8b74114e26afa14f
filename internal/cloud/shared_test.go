package cloud_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/stats"
	"raqo/internal/workload"
)

// sharedConfig is the shared cluster of `raqo figure arbiter` on a fresh
// optimizer: capacity containers, three weighted tenants.
func sharedConfig(t testing.TB, capacity int) cloud.Config {
	t.Helper()
	cfg, err := cloud.SharedCluster(testConfig(t, cloud.Market{}).Workload, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// sharedTrace is the seeded 36-query stream of bursty waves over the
// three tenants and the TPC-H mix.
func sharedTrace() cloud.TraceConfig {
	tc := testTrace(cloud.Bursty, 36, cloud.RecoverReoptimize)
	tc.BurstSize = 6
	return tc
}

// arrivals draws a trace and submits every arrival under one policy.
func arrivals(t testing.TB, tc cloud.TraceConfig, policy scheduler.Policy) []cloud.Arrival {
	t.Helper()
	trace, err := cloud.GenerateTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace {
		trace[i].Policy = policy
	}
	return trace
}

// runShared replays sharedTrace under one policy on a 100-container shared
// cluster and returns Run's outcomes and the final counts.
func runShared(t *testing.T, policy scheduler.Policy) ([]cloud.Outcome, cloud.Counts, cloud.Stats) {
	t.Helper()
	a, err := cloud.New(sharedConfig(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := a.Run(arrivals(t, sharedTrace(), policy))
	if err != nil {
		t.Fatal(err)
	}
	return outcomes, a.Counts(), a.Stats()
}

func TestSharedRunCompletesWorkload(t *testing.T) {
	for _, policy := range []scheduler.Policy{scheduler.Wait, scheduler.Degrade, scheduler.Reoptimize} {
		outcomes, n, st := runShared(t, policy)
		if int64(len(outcomes))+n.Shed+n.Dropped+n.Failed != 36 {
			t.Fatalf("%v: %d completed + %d rejected + %d failed != 36 arrivals",
				policy, len(outcomes), n.Shed+n.Dropped, n.Failed)
		}
		if st.Queued != 0 || st.InFlight != 0 {
			t.Fatalf("%v: drained arbiter has queued=%d inflight=%d", policy, st.Queued, st.InFlight)
		}
		if st.Free != 100 {
			t.Fatalf("%v: drained pool has %d free", policy, st.Free)
		}
		for i, o := range outcomes {
			if o.Start-o.Arrival < 0 || o.ExecSeconds <= 0 {
				t.Fatalf("%v outcome %d: queue=%g exec=%g", policy, i, o.Start-o.Arrival, o.ExecSeconds)
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

// TestSharedDeterministicAcrossRuns is the shared cluster's bit-identical
// bar: the same seeded workload yields deeply equal outcome streams on
// repeat runs.
func TestSharedDeterministicAcrossRuns(t *testing.T) {
	for _, policy := range []scheduler.Policy{scheduler.Wait, scheduler.Reoptimize} {
		base, baseCounts, _ := runShared(t, policy)
		again, againCounts, _ := runShared(t, policy)
		if !reflect.DeepEqual(base, again) {
			t.Fatalf("%v: repeat run diverged", policy)
		}
		if baseCounts != againCounts {
			t.Fatalf("%v: repeat counts diverged: %+v vs %+v", policy, baseCounts, againCounts)
		}
	}
}

// TestReoptimizeCollapsesQueueRatio is the paper's argument end to end:
// re-optimizing under currently free conditions must cut the tail
// queue-time/run-time ratio versus waiting for the submitted gang.
func TestReoptimizeCollapsesQueueRatio(t *testing.T) {
	wait, _, _ := runShared(t, scheduler.Wait)
	reopt, n, _ := runShared(t, scheduler.Reoptimize)
	p95 := func(outs []cloud.Outcome) float64 {
		var rs []float64
		for i := range outs {
			rs = append(rs, outs[i].QueueRunRatio())
		}
		return stats.Percentile(rs, 95)
	}
	pw, pr := p95(wait), p95(reopt)
	if pr >= pw {
		t.Fatalf("reoptimize P95 ratio %g not below wait %g", pr, pw)
	}
	if n.Replanned == 0 {
		t.Fatal("reoptimize run never replanned")
	}
}

// TestRunReturnsOutcomesWithAnyHook: Run returns the outcomes completed
// during the run whether or not Hooks.Completed is set, and a hooked
// arbiter keeps exactly those.
func TestRunReturnsOutcomesWithAnyHook(t *testing.T) {
	run := func(hooked bool) ([]cloud.Outcome, *cloud.Arbiter) {
		cfg := sharedConfig(t, 100)
		if hooked {
			cfg.Hooks.Completed = func(*cloud.Outcome, *core.Decision, *execsim.Result) error { return nil }
		}
		a, err := cloud.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		outcomes, err := a.Run(arrivals(t, sharedTrace(), scheduler.Reoptimize))
		if err != nil {
			t.Fatal(err)
		}
		return outcomes, a
	}
	want, _ := run(false)
	got, a := run(true)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("hooked Run returned %d outcomes, unhooked %d, or they differ", len(got), len(want))
	}
	if !reflect.DeepEqual(a.Completed(), want) {
		t.Fatalf("hooked Completed() holds %d outcomes, want Run's %d", len(a.Completed()), len(want))
	}
}

func TestSharedNewValidation(t *testing.T) {
	wl := testConfig(t, cloud.Market{}).Workload
	for _, capacity := range []int{0, wl.Base.MinContainers - 1} {
		if _, err := cloud.SharedCluster(wl, capacity); err == nil {
			t.Fatalf("capacity %d below minimum allocation %d accepted", capacity, wl.Base.MinContainers)
		}
	}
	cfg := sharedConfig(t, 100)
	cfg.Optimizer = nil
	if _, err := cloud.New(cfg); err == nil {
		t.Fatal("nil optimizer accepted")
	}
	cfg = sharedConfig(t, 100)
	cfg.Tenants = nil
	if _, err := cloud.New(cfg); err == nil {
		t.Fatal("no tenants accepted")
	}
	cfg = sharedConfig(t, 100)
	cfg.Tenants = []cloud.TenantConfig{{Name: "a"}, {Name: "a"}}
	if _, err := cloud.New(cfg); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
}

// submitWait submits one query to a at its current virtual time under
// policy, as POST /v1/submit does.
func submitWait(a *cloud.Arbiter, tenant, query string, policy scheduler.Policy) (*cloud.Outcome, error) {
	return a.SubmitWaitWith(cloud.Arrival{Tenant: tenant, Query: query, Time: a.Now(), Policy: policy})
}

func TestSharedSubmitValidation(t *testing.T) {
	a, err := cloud.New(sharedConfig(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	var unknown *cloud.UnknownError
	if _, err := submitWait(a, "nope", workload.Q12, scheduler.Wait); !errors.As(err, &unknown) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if _, err := submitWait(a, "etl", "Q99", scheduler.Wait); !errors.As(err, &unknown) {
		t.Fatalf("unknown query: %v", err)
	}
	if _, err := submitWait(a, "etl", workload.Q12, scheduler.Policy(9)); !errors.As(err, &unknown) {
		t.Fatalf("unknown policy: %v", err)
	}
}

func TestWaitOversizedRejected(t *testing.T) {
	// A pool smaller than any optimal gang: Wait submissions would queue
	// forever, so they must be rejected up front.
	capacity := cluster.Default().MinContainers
	a, err := cloud.New(sharedConfig(t, capacity))
	if err != nil {
		t.Fatal(err)
	}
	_, err = submitWait(a, "etl", workload.All, scheduler.Wait)
	if !errors.Is(err, cloud.ErrRejected) {
		t.Fatalf("oversized Wait submission: got %v, want ErrRejected", err)
	}
	// The same query under Reoptimize is admissible: it replans to fit.
	out, err := submitWait(a, "etl", workload.All, scheduler.Reoptimize)
	if err != nil {
		t.Fatal(err)
	}
	if out.Containers > capacity {
		t.Fatalf("admitted gang %d exceeds capacity %d", out.Containers, capacity)
	}
}

// skewedRecalConfig is a single-tenant shared cluster planning with
// deliberately 4x-skewed cost models, wired so that simulated completions
// stream into the returned recalibrator, a drift check runs every 4 of
// them and every model swap reaches the optimizer. recals counts the
// swaps.
func skewedRecalConfig(t testing.TB) (cfg cloud.Config, rec *feedback.Recalibrator, recals func() int64) {
	t.Helper()
	truth, _ := testFixtures(t)
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
	rec = feedback.NewRecalibrator(
		feedback.NewStore(1024, nil),
		feedback.NewDetector(feedback.DriftConfig{MinSamples: 8}),
		skewed,
	)
	cfg = sharedConfig(t, 100)
	opt := newOptimizer(t, skewed)
	rec.OnSwap(func(_ feedback.Recalibration, info *feedback.ModelInfo) {
		if err := opt.SetModels(info.Models); err != nil {
			t.Errorf("SetModels: %v", err)
		}
	})
	cfg.Optimizer = opt
	cfg.Tenants = []cloud.TenantConfig{{Name: "etl"}}
	cfg.Hooks.Completed, recals = cloud.FeedbackHook(&feedback.Observer{Recal: rec}, nil, 4)
	return cfg, rec, recals
}

// singleTenantTrace is sharedTrace with every arrival on the one tenant
// of skewedRecalConfig.
func singleTenantTrace() cloud.TraceConfig {
	tc := sharedTrace()
	tc.Tenants = []cloud.Share{{Name: "etl", Weight: 1}}
	return tc
}

// TestFeedbackRecalibratesMidWorkload wires a deliberately skewed cost
// model into the shared cluster: simulated completions stream into the
// recalibrator at their virtual finish times, drift fires mid-workload,
// and the model version advances while the workload is still running.
func TestFeedbackRecalibratesMidWorkload(t *testing.T) {
	cfg, rec, recals := skewedRecalConfig(t)
	a, err := cloud.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(arrivals(t, singleTenantTrace(), scheduler.Reoptimize)); err != nil {
		t.Fatal(err)
	}
	if recals() == 0 {
		t.Fatal("4x-skewed models never recalibrated mid-workload")
	}
	if v := rec.Current().Version; v < 2 {
		t.Fatalf("model version %d, want >= 2", v)
	}
	if rec.Store().Len() == 0 {
		t.Fatal("no observations reached the feedback store")
	}
}

// sharedOutcome and sharedStats are the shapes the committed shared-cluster
// files render, field for field: a shared-cluster outcome's queue time is
// Start - Arrival, and the stats are a view of the engine's Counts with
// the completion hook's recalibration count.
type sharedOutcome struct {
	Tenant       string
	Query        string
	Policy       scheduler.Policy
	Arrival      float64
	Start        float64
	Finish       float64
	QueueSeconds float64
	ExecSeconds  float64
	Replanned    bool
	Degraded     bool
	Containers   int
	ContainerGB  float64
}

type sharedStats struct {
	Now            float64
	Completed      int
	InFlight       int
	Queued         int
	Rejected       int64
	Failed         int64
	AdmittedWait   int64
	AdmittedDeg    int64
	AdmittedReopt  int64
	Replanned      int64
	Degraded       int64
	DegradeStalls  int64
	Recals         int64
	FreeContainers int
	HeldGB         float64
	ReoptFull      int64
}

// mixedArrivals is the sharedTrace stream denser and in waves of burst,
// arrival i under scheduler.Policy(i%3).
func mixedArrivals(t *testing.T, burst int) []cloud.Arrival {
	tc := sharedTrace()
	tc.Arrivals, tc.MeanIntervalSeconds, tc.BurstSize = 48, 10, burst
	arrs := arrivals(t, tc, scheduler.Wait)
	for i := range arrs {
		arrs[i].Policy = scheduler.Policy(i % 3)
	}
	return arrs
}

// sharedSection replays arrivals on a cluster built from cfg and appends
// the rendering to b under a "== name" header: each outcome, then the
// stats line, through test-local structs with the standalone arbiter's
// field names and order.
func sharedSection(t *testing.T, b *strings.Builder, name string, cfg cloud.Config, recals func() int64, arrivals []cloud.Arrival) {
	t.Helper()
	a, err := cloud.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := a.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== %s\n", name)
	for _, o := range outcomes {
		fmt.Fprintln(b, bitsString(reflect.ValueOf(sharedOutcome{
			Tenant: o.Tenant, Query: o.Query, Policy: o.Policy,
			Arrival: o.Arrival, Start: o.Start, Finish: o.Finish,
			QueueSeconds: o.Start - o.Arrival, ExecSeconds: o.ExecSeconds,
			Replanned: o.Replanned, Degraded: o.Degraded,
			Containers: o.Containers, ContainerGB: o.ContainerGB,
		})))
	}
	st, n := a.Stats(), a.Counts()
	fmt.Fprintln(b, "stats", bitsString(reflect.ValueOf(sharedStats{
		Now: st.Now, Completed: st.Completed, InFlight: st.InFlight, Queued: st.Queued,
		Rejected: n.Shed + n.Dropped, Failed: n.Failed,
		AdmittedWait: n.Admitted[scheduler.Wait], AdmittedDeg: n.Admitted[scheduler.Degrade],
		AdmittedReopt: n.Admitted[scheduler.Reoptimize],
		Replanned:     n.Replanned, Degraded: n.Degraded, DegradeStalls: n.DegradeStalls,
		Recals: recals(), FreeContainers: st.Free, HeldGB: a.Pool().HeldGB(), ReoptFull: n.ReoptFull,
	})))
}

// matchGolden requires got to equal the committed file at path byte for
// byte, naming the first line that drifted.
func matchGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d drifted:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
}

func noRecals() int64 { return 0 }

// TestSharedGoldenOutcomes replays the 36-query stream under each single
// policy and the single-tenant stream whose skewed models recalibrate
// mid-run (submission plans must follow the model swap), and requires the
// rendering to equal testdata/shared_outcomes.txt byte for byte: the
// standalone arbiter's outcomes from before the reuse-layer diet, which
// dropped the ReoptExact, ReoptPatched and ReoptFallback counters from
// the pinned stats. The file was written before the engines merged and is
// never regenerated.
func TestSharedGoldenOutcomes(t *testing.T) {
	var b strings.Builder
	for _, policy := range []scheduler.Policy{scheduler.Wait, scheduler.Degrade, scheduler.Reoptimize} {
		sharedSection(t, &b, policy.String(), sharedConfig(t, 100), noRecals, arrivals(t, sharedTrace(), policy))
	}
	cfg, _, recals := skewedRecalConfig(t)
	sharedSection(t, &b, "reoptimize+recalibration", cfg, recals, arrivals(t, singleTenantTrace(), scheduler.Reoptimize))
	matchGolden(t, "testdata/shared_outcomes.txt", b.String())
}

// TestSharedMixedGolden replays two mixed-policy streams (arrival i under
// scheduler.Policy(i%3)) on 80- and 40-container clusters and requires the
// rendering to equal testdata/mixed_outcomes.txt byte for byte, which the
// standalone arbiter wrote before it became the engine's one-class case.
// Unlike the single-policy streams, they tell the stashed re-planning pass
// from re-planning a head the moment it misses.
func TestSharedMixedGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct{ capacity, burst int }{{80, 8}, {40, 4}} {
		name := fmt.Sprintf("mixed/capacity%d/burst%d", c.capacity, c.burst)
		sharedSection(t, &b, name, sharedConfig(t, c.capacity), noRecals, mixedArrivals(t, c.burst))
	}
	matchGolden(t, "testdata/mixed_outcomes.txt", b.String())
}

// daysTrace stretches the seeded arrival stream across more than a
// virtual day, so the history store accumulates day-scale rollups without
// a single wall-clock read.
func daysTrace() cloud.TraceConfig {
	tc := sharedTrace()
	tc.Arrivals = 300
	tc.MeanIntervalSeconds = 600 // ~50 virtual hours of arrivals
	return tc
}

// runHistoryWorkload drives the days-long workload through a shared
// cluster whose completion hook feeds a history store at dir, returning
// the long-horizon stats at the virtual end time and the store's shape.
func runHistoryWorkload(t *testing.T, dir string) ([]feedback.LongHorizonStat, history.Stats) {
	t.Helper()
	models, _ := testFixtures(t)
	st, err := history.Open(dir, history.Config{SegmentMaxBytes: 64 << 10, RawRetention: 6 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	det := feedback.NewDetector(feedback.DriftConfig{})
	det.SetRecorder(st)
	rec := feedback.NewRecalibrator(feedback.NewStore(1024, nil), det, models)

	cfg := sharedConfig(t, 100)
	cfg.Hooks.Completed, _ = cloud.FeedbackHook(&feedback.Observer{Recal: rec}, st, 0)
	a, err := cloud.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(arrivals(t, daysTrace(), scheduler.Reoptimize)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	stats, err := feedback.LongHorizon(st, int64(a.Now()), feedback.LongHorizonConfig{MinRecent: 4, MinBaseline: 16})
	if err != nil {
		t.Fatal(err)
	}
	return stats, st.Stats()
}

// dirBytes maps each file name in dir to its contents.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// TestHistoryDeterministicAcrossRuns is the long-horizon bar: a seeded
// days-long virtual workload produces byte-identical history files and
// identical drift stats on repeat runs.
func TestHistoryDeterministicAcrossRuns(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	statsA, shapeA := runHistoryWorkload(t, dirA)
	statsB, shapeB := runHistoryWorkload(t, dirB)

	if shapeA.CommittedTotal == 0 || shapeA.Series == 0 {
		t.Fatalf("workload recorded no history: %+v", shapeA)
	}
	if shapeA.HighWater < 24*3600 {
		t.Fatalf("workload did not span a virtual day: high water %d", shapeA.HighWater)
	}
	if len(statsA) == 0 {
		t.Fatal("no long-horizon classes")
	}
	if !reflect.DeepEqual(statsA, statsB) || shapeA != shapeB {
		t.Fatalf("repeat run diverged:\n%+v\n%+v", statsA, statsB)
	}

	bytesA, bytesB := dirBytes(t, dirA), dirBytes(t, dirB)
	if len(bytesA) == 0 {
		t.Fatal("no history files written")
	}
	for name, data := range bytesA {
		if !bytes.Equal(data, bytesB[name]) {
			t.Fatalf("file %s differs between repeat runs", name)
		}
	}
	for name := range bytesB {
		if _, ok := bytesA[name]; !ok {
			t.Fatalf("file %s only in second run", name)
		}
	}

	// The recorded series are queryable end to end: per-tenant queue and
	// exec times plus the detector's error series.
	st, err := history.Open(dirA, history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	names := st.SeriesNames()
	wantSome := map[string]bool{
		"arbiter.queue_seconds.etl":  false,
		"arbiter.exec_seconds.etl":   false,
		"feedback.relerr.hive.query": false,
	}
	for _, n := range names {
		if _, ok := wantSome[n]; ok {
			wantSome[n] = true
		}
	}
	for n, seen := range wantSome {
		if !seen {
			t.Fatalf("series %s missing from %v", n, names)
		}
	}
	rows, err := st.Query("arbiter.exec_seconds.etl", 0, shapeA.HighWater+3600, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("exec-seconds series has only %d hourly buckets", len(rows))
	}
}
