package cloud_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/telemetry"
	"raqo/internal/units"
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
	engine := cloud.Engine()
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

// spotIdx is the spot class's index in testMarket's pool.
const spotIdx = 1

// testMarket is a two-tier market with an elastic spot class.
func testMarket(elastic bool) cloud.Market {
	m := cloud.DefaultMarket(12, 24, 0.7)
	if elastic {
		m.Classes[1].Count = 8
		m.Classes[1].MinCount = 4
		m.Classes[1].MaxCount = 48
	}
	return m
}

func testConfig(t testing.TB, m cloud.Market) cloud.Config {
	t.Helper()
	models, queries := testFixtures(t)
	return cloud.Config{
		Workload: cloud.Workload{
			Base:      cluster.Default(),
			Optimizer: newOptimizer(t, models),
			Queries:   queries,
			Tenants: []cloud.TenantConfig{
				{Name: "etl", Weight: 2},
				{Name: "bi", Weight: 1},
				{Name: "adhoc", Weight: 1},
			},
		},
		Market: m,
	}
}

func testShares() ([]cloud.Share, []cloud.Share) {
	tenants := []cloud.Share{
		{Name: "etl", Weight: 2}, {Name: "bi", Weight: 1}, {Name: "adhoc", Weight: 1},
	}
	mix := []cloud.Share{
		{Name: workload.Q12, Weight: 4},
		{Name: workload.Q3, Weight: 3},
		{Name: workload.Q2, Weight: 2},
		{Name: workload.All, Weight: 1},
	}
	return tenants, mix
}

func testTrace(shape cloud.Shape, n int, rec cloud.Recovery) cloud.TraceConfig {
	tenants, mix := testShares()
	return cloud.TraceConfig{
		Seed:                42,
		Arrivals:            n,
		MeanIntervalSeconds: 30,
		Shape:               shape,
		Tenants:             tenants,
		Mix:                 mix,
		Recovery:            rec,
	}
}

func mustRun(t *testing.T, cfg cloud.Config, trace cloud.TraceConfig) ([]cloud.Outcome, cloud.Stats) {
	t.Helper()
	a, err := cloud.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := cloud.GenerateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := a.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	return outcomes, a.Stats()
}

func TestMarketValidate(t *testing.T) {
	bad := []cloud.Market{
		{},
		{Classes: []cloud.InstanceClass{{Name: "", ContainerGB: 10, Count: 1}}},
		{Classes: []cloud.InstanceClass{
			{Name: "a", ContainerGB: 10, Count: 1},
			{Name: "a", ContainerGB: 10, Count: 1},
		}},
		{Classes: []cloud.InstanceClass{{Name: "a", ContainerGB: 0, Count: 1}}},
		{Classes: []cloud.InstanceClass{{Name: "a", ContainerGB: 10, Count: 0}}},
		{Classes: []cloud.InstanceClass{{Name: "a", ContainerGB: 10, Count: 1, Price: -1}}},
		{Classes: []cloud.InstanceClass{{Name: "a", ContainerGB: 10, Count: 9, MinCount: 2, MaxCount: 8}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("market %d validated", i)
		}
	}
	if err := testMarket(true).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolBillingAndScaling(t *testing.T) {
	m := cloud.Market{Classes: []cloud.InstanceClass{{
		Name: "c", Tier: cloud.OnDemand, ContainerGB: 10,
		Count: 4, MinCount: 2, MaxCount: 8, Price: units.USDPerHour(3.6),
	}}}
	p, err := cloud.NewPool(m)
	if err != nil {
		t.Fatal(err)
	}
	// 4 containers at $3.6/hr for 1000s = 4 * $1.
	p.Advance(1000)
	if got := float64(p.SpendUSD()); math.Abs(got-4) > 1e-9 {
		t.Fatalf("spend after 1000s = %g, want 4", got)
	}
	// Scale up 2 with 100s lag: not allocatable until 1100.
	p.ScaleUp(0, 2, 100)
	if p.Capacity() != 4 || p.PendingOf(0) != 2 {
		t.Fatalf("capacity %d pending %d before lag", p.Capacity(), p.PendingOf(0))
	}
	if at, ok := p.NextCapacity(); !ok || at != 1100 {
		t.Fatalf("next capacity = %g, %v", at, ok)
	}
	p.Advance(1100)
	if p.Capacity() != 6 || p.PendingOf(0) != 0 {
		t.Fatalf("capacity %d pending %d after lag", p.Capacity(), p.PendingOf(0))
	}
	// The new containers bill from arrival: at t=1100 they cost nothing yet.
	if got := float64(p.SpendUSD()); math.Abs(got-4.4) > 1e-9 {
		t.Fatalf("spend at 1100s = %g, want 4.4", got)
	}
	// Scale down 10s later: the two youngest settle, rounded up to a 60s
	// granule (they lived 10s each → billed 60s each = $0.12).
	p.Advance(1110)
	if removed := p.ScaleDown(0, 2, 60); removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	want := 4.0 + 4*(110.0/3600)*3.6 + 2*(60.0/3600)*3.6
	if got := float64(p.SpendUSD()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("spend after scale-down = %g, want %g", got, want)
	}
	// Scale down below MinCount is the caller's policy; the pool only
	// refuses to drop held containers or the last one.
	tok, err := p.Allocate(0, 3, 10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if removed := p.ScaleDown(0, 4, 60); removed != 1 {
		t.Fatalf("removed %d idle of 1 free", removed)
	}
	if _, ok := p.Revoke(tok); !ok {
		t.Fatal("revoke failed")
	}
	if p.Capacity() != 3 || p.Free() != 3 {
		t.Fatalf("capacity %d free %d after revoke", p.Capacity(), p.Free())
	}
}

func TestPoolConditionsForCapsClassSize(t *testing.T) {
	p, err := cloud.NewPool(cloud.Market{Classes: []cloud.InstanceClass{
		{Name: "small", Tier: cloud.OnDemand, ContainerGB: 4, Count: 5},
		{Name: "tiny", Tier: cloud.OnDemand, ContainerGB: 0.5, Count: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	base := cluster.Default()
	cond, ok := p.ConditionsFor(0, base)
	if !ok || cond.MaxContainerGB != 4 || cond.MaxContainers != 5 {
		t.Fatalf("small class conditions %+v ok=%v", cond, ok)
	}
	// The tiny class cannot host even the minimum container size.
	if _, ok := p.ConditionsFor(1, base); ok {
		t.Fatal("tiny class should offer no conditions")
	}
}

func TestInjectorDrawDeterministicAndIndependent(t *testing.T) {
	cfg := cloud.FaultConfig{Seed: 7, SpotMeanLifeSeconds: 120, StragglerProb: 0.2, OOMProb: 0.1}
	inA, err := cloud.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inB, _ := cloud.NewInjector(cfg)
	// Toggling an unrelated process must not shift another's stream.
	noOOM := cfg
	noOOM.OOMProb = 0
	inC, _ := cloud.NewInjector(noOOM)
	for seq := int64(1); seq <= 200; seq++ {
		a := inA.Draw(seq, cloud.Spot, 100, 300)
		b := inB.Draw(seq, cloud.Spot, 100, 300)
		c := inC.Draw(seq, cloud.Spot, 100, 300)
		if a != b {
			t.Fatalf("seq %d: %+v != %+v", seq, a, b)
		}
		if a.PreemptAt != c.PreemptAt || a.Straggler != c.Straggler {
			t.Fatalf("seq %d: disabling OOM shifted other draws: %+v vs %+v", seq, a, c)
		}
		if c.OOMAt >= 0 {
			t.Fatalf("seq %d: OOM drawn while disabled", seq)
		}
	}
	// On-demand never draws a preemption.
	for seq := int64(1); seq <= 50; seq++ {
		if d := inA.Draw(seq, cloud.OnDemand, 0, 1e6); d.PreemptAt >= 0 {
			t.Fatalf("seq %d: on-demand preempted", seq)
		}
	}
}

func TestRunCompletesAllShapes(t *testing.T) {
	for _, shape := range []cloud.Shape{cloud.Steady, cloud.Diurnal, cloud.Bursty} {
		cfg := testConfig(t, testMarket(false))
		outcomes, st := mustRun(t, cfg, testTrace(shape, 30, cloud.RecoverReoptimize))
		if int64(len(outcomes))+st.Rejected != 30 {
			t.Fatalf("%v: %d completed + %d rejected != 30", shape, len(outcomes), st.Rejected)
		}
		if st.Lost != 0 {
			t.Fatalf("%v: lost %d queries", shape, st.Lost)
		}
		if st.Queued != 0 || st.InFlight != 0 {
			t.Fatalf("%v: drained with queued=%d inflight=%d", shape, st.Queued, st.InFlight)
		}
		if st.SpendUSD <= 0 {
			t.Fatalf("%v: no spend accrued", shape)
		}
		for i, o := range outcomes {
			if o.Start < o.Arrival || o.Finish <= o.Start || o.ExecSeconds <= 0 {
				t.Fatalf("%v outcome %d: arrival=%g start=%g finish=%g exec=%g",
					shape, i, o.Arrival, o.Start, o.Finish, o.ExecSeconds)
			}
		}
	}
}

// faultyConfig layers spot interruption, stragglers, OOM and a storm on
// the test market.
func faultyConfig(t testing.TB, elastic bool) cloud.Config {
	cfg := testConfig(t, testMarket(elastic))
	cfg.Faults = cloud.FaultConfig{
		Seed:                7,
		SpotMeanLifeSeconds: 900,
		StragglerProb:       0.15,
		OOMProb:             0.05,
		StormAtSeconds:      400,
	}
	return cfg
}

func TestPreemptionStormZeroLost(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := faultyConfig(t, false)
	cfg.Metrics = cloud.NewMetrics(reg)
	outcomes, st := mustRun(t, cfg, testTrace(cloud.Bursty, 40, cloud.RecoverReoptimize))
	if st.Lost != 0 {
		t.Fatalf("lost %d queries", st.Lost)
	}
	if int64(len(outcomes))+st.Rejected != 40 {
		t.Fatalf("%d completed + %d rejected != 40", len(outcomes), st.Rejected)
	}
	if st.StormPreemptions < 1 {
		t.Fatal("storm revoked nothing — tune the trace so spot is busy at t=400")
	}
	if st.Preemptions < st.StormPreemptions {
		t.Fatalf("preemptions %d < storm %d", st.Preemptions, st.StormPreemptions)
	}
	recovered := st.RecoveredReopt + st.RecoveredOnDem + st.RecoveredDegrade
	if recovered < st.Preemptions+st.OOMAborts {
		t.Fatalf("recovered %d < revocations %d", recovered, st.Preemptions+st.OOMAborts)
	}
	if cfg.Metrics.Lost.Value() != 0 {
		t.Fatalf("lost gauge %d", cfg.Metrics.Lost.Value())
	}
	if got := cfg.Metrics.OOMAborts.Value(); got != st.OOMAborts {
		t.Fatalf("oom metric %d != stats %d", got, st.OOMAborts)
	}
	preempted := 0
	for _, o := range outcomes {
		if o.Preemptions > 0 {
			preempted++
			if o.BillUSD <= 0 {
				t.Fatalf("preempted %s/%s billed nothing", o.Tenant, o.Query)
			}
		}
	}
	if preempted == 0 {
		t.Fatal("no completed outcome records a preemption")
	}
}

func TestRecoveryPolicies(t *testing.T) {
	// Under RecoverOnDemand, every query that was preempted must finish on
	// the on-demand tier.
	cfg := faultyConfig(t, false)
	outcomes, st := mustRun(t, cfg, testTrace(cloud.Bursty, 40, cloud.RecoverOnDemand))
	if st.Preemptions == 0 {
		t.Fatal("no preemptions; trace too light")
	}
	if st.Lost != 0 {
		t.Fatalf("lost %d", st.Lost)
	}
	for _, o := range outcomes {
		if o.Preemptions > 0 && o.Tier != cloud.OnDemand {
			t.Fatalf("%s/%s preempted %d times yet finished on %v", o.Tenant, o.Query, o.Preemptions, o.Tier)
		}
	}

	// Under RecoverDegrade, preempted queries re-admit with a clamped plan.
	cfg = faultyConfig(t, false)
	outcomes, st = mustRun(t, cfg, testTrace(cloud.Bursty, 40, cloud.RecoverDegrade))
	if st.Lost != 0 {
		t.Fatalf("degrade lost %d", st.Lost)
	}
	degraded := false
	for _, o := range outcomes {
		if o.Preemptions > 0 && o.Degraded {
			degraded = true
		}
	}
	if st.Preemptions > 0 && !degraded {
		t.Fatal("no preempted query finished degraded")
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]cloud.Outcome, cloud.Stats) {
		cfg := faultyConfig(t, true)
		cfg.Autoscaler = cloud.AutoscalerConfig{Enabled: true}
		return mustRun(t, cfg, testTrace(cloud.Diurnal, 40, cloud.RecoverReoptimize))
	}
	base, baseStats := run()
	again, againStats := run()
	if !reflect.DeepEqual(base, again) {
		t.Fatal("same seed, two runs: outcomes differ")
	}
	if !reflect.DeepEqual(baseStats, againStats) {
		t.Fatalf("same seed, two runs: stats differ\n%+v\n%+v", baseStats, againStats)
	}
}

func TestAutoscalerGrowsAndShrinks(t *testing.T) {
	cfg := testConfig(t, testMarket(true))
	cfg.Autoscaler = cloud.AutoscalerConfig{Enabled: true}
	a, err := cloud.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A heavy burst up front, then silence: the scaler must grow for the
	// burst and shed back toward MinCount while draining.
	trace := testTrace(cloud.Bursty, 40, cloud.RecoverReoptimize)
	trace.MeanIntervalSeconds = 5
	arrivals, err := cloud.GenerateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(arrivals); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.ScaleUps == 0 {
		t.Fatal("autoscaler never scaled up under a heavy burst")
	}
	if st.ScaleDowns == 0 {
		t.Fatal("autoscaler never scaled down after the burst")
	}
	if st.Lost != 0 {
		t.Fatalf("lost %d", st.Lost)
	}
	if name := a.Pool().Class(spotIdx).Name; name != "spot-10g" {
		t.Fatalf("class %d is %s, not the spot class", spotIdx, name)
	}
	if got := a.Pool().CapacityOf(spotIdx); got > 8 {
		t.Fatalf("spot capacity %d did not shed back toward its floor", got)
	}
	for _, ev := range a.ScaleEvents() {
		if ev.Delta == 0 {
			t.Fatal("zero-delta scale event")
		}
	}
}

func TestSubmitWaitOnline(t *testing.T) {
	cfg := testConfig(t, testMarket(false))
	a, err := cloud.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.SubmitWait("bi", workload.Q3, cloud.RecoverReoptimize)
	if err != nil {
		t.Fatal(err)
	}
	if out.Finish <= out.Start || out.ExecSeconds <= 0 {
		t.Fatalf("bad outcome %+v", out)
	}
	if _, err := a.SubmitWait("ghost", workload.Q3, cloud.RecoverReoptimize); err == nil {
		t.Fatal("unknown tenant accepted")
	}
	var unknown *cloud.UnknownError
	if _, err := a.SubmitWait("bi", "nope", cloud.RecoverReoptimize); !errors.As(err, &unknown) {
		t.Fatalf("unknown query error = %v", err)
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Lost != 0 || st.InFlight != 0 {
		t.Fatalf("online drain left %+v", st)
	}
}

// TestRejectedSubmitWaitIsNotLost: a SubmitWait that can never be
// admitted — on a static market nothing is left to happen, on an elastic
// one only autoscaler ticks are — is a rejection, and the accounting
// invariant holds: the query is not also counted lost.
func TestRejectedSubmitWaitIsNotLost(t *testing.T) {
	for _, elastic := range []bool{false, true} {
		// 0.5 GB containers host no configuration of the default conditions.
		tiny := cloud.InstanceClass{Name: "tiny", Tier: cloud.OnDemand, ContainerGB: 0.5, Count: 4}
		cfg := testConfig(t, cloud.Market{Classes: []cloud.InstanceClass{tiny}})
		if elastic {
			cfg.Market.Classes[0].MaxCount = 8
			cfg.Autoscaler = cloud.AutoscalerConfig{Enabled: true}
		}
		cfg.Metrics = cloud.NewMetrics(telemetry.NewRegistry())
		a, err := cloud.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.SubmitWait("etl", workload.Q12, cloud.RecoverReoptimize); !errors.Is(err, cloud.ErrRejected) {
			t.Fatalf("elastic=%v: SubmitWait = %v, want ErrRejected", elastic, err)
		}
		st := a.Stats()
		if st.Submitted != 1 || st.Rejected != 1 || st.Queued != 0 || st.Lost != 0 {
			t.Fatalf("elastic=%v: submitted %d rejected %d queued %d lost %d, want 1/1/0/0",
				elastic, st.Submitted, st.Rejected, st.Queued, st.Lost)
		}
		if got := cfg.Metrics.Lost.Value(); got != 0 {
			t.Fatalf("elastic=%v: lost gauge %d", elastic, got)
		}
	}
}

// TestMetricsMatchStats: /metrics agrees with the market's stats without
// anyone reading the stats first. A non-memory-aware optimizer over the
// paper's models picks broadcast joins the engine cannot run, so queries
// fail at their chosen resources: raqo_cloud_rejections_total counts them
// as Stats' rejected does, the lost gauge is set by the event loop, and
// Stats writes no metric.
func TestMetricsMatchStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig(t, testMarket(false))
	opt, err := core.New(cluster.Default(), core.Options{Models: cost.PaperModels(), MemoizeCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Optimizer = opt
	cfg.Metrics = cloud.NewMetrics(reg)
	a, err := cloud.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := cloud.GenerateTrace(testTrace(cloud.Steady, 40, cloud.RecoverReoptimize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(arrivals); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := a.Counts(); n.Failed == 0 {
		t.Fatal("no query failed at its chosen resources: the comparison covers nothing")
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	for _, want := range []string{
		fmt.Sprintf("\nraqo_cloud_rejections_total %d\n", st.Rejected),
		fmt.Sprintf("\nraqo_cloud_lost_queries %d\n", st.Lost),
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("/metrics lacks %q (stats: rejected %d, lost %d):\n%s", strings.TrimSpace(want), st.Rejected, st.Lost, text.String())
		}
	}
	cfg.Metrics.Lost.Set(-7)
	a.Stats()
	if got := cfg.Metrics.Lost.Value(); got != -7 {
		t.Errorf("Stats set the lost gauge to %d", got)
	}
}

func TestGenerateTraceDeterministicAndOrdered(t *testing.T) {
	trace := testTrace(cloud.Diurnal, 60, cloud.RecoverDegrade)
	a, err := cloud.GenerateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cloud.GenerateTrace(trace)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different traces")
	}
	last := 0.0
	for i, arr := range a {
		if arr.Time < last {
			t.Fatalf("arrival %d goes backwards", i)
		}
		last = arr.Time
		if arr.Recovery != cloud.RecoverDegrade {
			t.Fatalf("arrival %d recovery %v", i, arr.Recovery)
		}
	}
	if _, err := cloud.GenerateTrace(cloud.TraceConfig{}); err == nil {
		t.Fatal("empty trace config accepted")
	}
}

// TestMemoizedExecutionsMatchFresh: every simulated execution an admission
// uses equals a fresh Engine().Execute of its plan, bit for bit, and every
// degraded admission's plan equals a fresh scheduler.ClampClone of the
// submitted plan onto the conditions its class offered — under Wait,
// Degrade and Reoptimize admission and every recovery, on a faulty market
// whose classes differ in container size. Memoized decisions and their
// clamps share one result across admissions. Neither outlives its
// decision: after the FIFO eviction of a query's submitted decision, and
// after a fleet model Install swaps the optimizer's models, no admission
// reuses a result from before.
func TestMemoizedExecutionsMatchFresh(t *testing.T) {
	cfg := testConfig(t, cloud.Market{Classes: []cloud.InstanceClass{
		{Name: "od-10g", Tier: cloud.OnDemand, ContainerGB: 10, Count: 100, Price: cloud.OnDemandRate(10)},
		{Name: "spot-10g", Tier: cloud.Spot, ContainerGB: 10, Count: 40, Price: cloud.SpotRate(10, 0.7)},
		{Name: "spot-6g", Tier: cloud.Spot, ContainerGB: 6, Count: 40, Price: cloud.SpotRate(6, 0.5)},
	}})
	cfg.Faults = cloud.FaultConfig{Seed: 7, SpotMeanLifeSeconds: 7200, StragglerProb: 0.1, OOMProb: 0.02}
	models, _ := testFixtures(t)
	rec := feedback.NewRecalibrator(feedback.NewStore(16, nil), feedback.NewDetector(feedback.DriftConfig{}), models)
	rec.OnSwap(func(_ feedback.Recalibration, info *feedback.ModelInfo) {
		if err := cfg.Optimizer.SetModels(info.Models); err != nil {
			t.Error(err)
		}
	})
	var a *cloud.Arbiter
	executed := make(map[*execsim.Result]int) // results undegraded admissions ran, by use
	clamped := make(map[*execsim.Result]int)  // results degraded admissions ran, by use
	cfg.Hooks.Admitted = func(o *cloud.Outcome) {
		adm := a.LastAdmission()
		fresh, err := cloud.Engine().Execute(adm.Ran.Plan, cost.DefaultPricing())
		if err != nil || !reflect.DeepEqual(adm.Res, fresh) {
			t.Errorf("%s/%s: admitted %+v, fresh %+v (%v)", o.Tenant, o.Query, adm.Res, fresh, err)
		}
		if !o.Degraded {
			executed[adm.Res]++
			return
		}
		want, _ := scheduler.ClampClone(adm.Submitted.Plan, adm.Offered, nil)
		if !adm.Ran.Plan.Equal(want) || adm.Ran.Time != 0 {
			t.Errorf("%s/%s degraded onto %+v: ran %s (time %g), want %s", o.Tenant, o.Query, adm.Offered,
				adm.Ran.Plan.SignatureWithResources(), adm.Ran.Time, want.SignatureWithResources())
		}
		clamped[adm.Res]++
	}
	cfg.Hooks.Completed = func(o *cloud.Outcome, d *core.Decision, res *execsim.Result) error {
		fresh, err := cloud.Engine().Execute(d.Plan, cost.DefaultPricing())
		if err != nil || !reflect.DeepEqual(res, fresh) {
			t.Errorf("%s/%s: executed %+v, fresh %+v (%v)", o.Tenant, o.Query, res, fresh, err)
		}
		return nil
	}
	var err error
	if a, err = cloud.New(cfg); err != nil {
		t.Fatal(err)
	}
	tenants := []string{"etl", "bi", "adhoc"}
	submit := func(i int, query string, policy scheduler.Policy, rec cloud.Recovery) {
		t.Helper()
		arr := cloud.Arrival{Tenant: tenants[i%len(tenants)], Query: query, Time: a.Now(), Policy: policy, Recovery: rec}
		if _, err := a.SubmitWaitWith(arr); err != nil && !errors.Is(err, cloud.ErrRejected) &&
			!strings.Contains(err.Error(), "failed to execute") {
			t.Fatal(err)
		}
	}
	// sharing counts the admissions that ran the results of used and the
	// results more than one of them ran.
	sharing := func(used map[*execsim.Result]int) (admissions, shared int) {
		for _, n := range used {
			admissions += n
			if n > 1 {
				shared++
			}
		}
		return admissions, shared
	}
	// run submits n arrivals of queries under every policy and recovery,
	// drains, and returns the results the undegraded and the degraded
	// admissions ran. Each kind must share a result: the memo, not a
	// fresh run, answered them.
	run := func(n int, queries ...string) (undegraded, degraded map[*execsim.Result]int) {
		t.Helper()
		clear(executed)
		clear(clamped)
		for i := 0; i < n; i++ {
			submit(i, queries[i%len(queries)], scheduler.Policy(i%3), cloud.Recovery(i/3%3))
		}
		if err := a.Drain(); err != nil {
			t.Fatal(err)
		}
		if admitted, shared := sharing(executed); shared == 0 {
			t.Fatalf("%d undegraded admissions shared no execution: %d results", admitted, len(executed))
		}
		if degraded, shared := sharing(clamped); shared == 0 {
			t.Fatalf("%d degraded admissions shared no clamp: %d results", degraded, len(clamped))
		}
		return maps.Clone(executed), maps.Clone(clamped)
	}
	reused := func(before, after map[*execsim.Result]int) bool {
		for res := range after {
			if before[res] > 0 {
				return true
			}
		}
		return false
	}

	_, firstClamps := run(240, workload.Q12, workload.Q3, workload.Q2, workload.All)
	n := a.Counts()
	if n.Degraded == 0 || n.Recovered[cloud.RecoverReoptimize] == 0 || n.Recovered[cloud.RecoverOnDemand] == 0 ||
		n.Recovered[cloud.RecoverDegrade] == 0 || n.Admitted[scheduler.Wait] == 0 {
		t.Fatalf("the stream misses an admission path: %+v", n)
	}

	// Evict Q12's submitted decision from the arbiter's memo: plan Q12
	// through it under more distinct conditions than the memo holds.
	_, queries := testFixtures(t)
	base := cluster.Default()
	for i := 0; i < 130; i++ {
		cond, err := base.Restrict(1+i%base.MaxContainers, base.MaxContainerGB-float64(i/base.MaxContainers))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Reoptimizer().Optimize(queries[workload.Q12], cond); err != nil {
			t.Fatal(err)
		}
	}
	if _, clamps := run(120, workload.Q12); reused(firstClamps, clamps) {
		t.Error("a degraded admission after its decision's eviction reused a clamp from before it")
	}

	before, beforeClamps := run(240, workload.Q12, workload.Q3, workload.Q2, workload.All)
	if !rec.Install(2, cost.PaperModels(), 0) {
		t.Fatal("Install refused a newer version")
	}
	after, afterClamps := run(240, workload.Q12, workload.Q3, workload.Q2, workload.All)
	if reused(before, after) || reused(beforeClamps, afterClamps) {
		t.Fatal("an admission after the model swap reused an execution from before it")
	}
}
