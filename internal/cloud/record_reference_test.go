package cloud_test

import (
	"math"
	"math/rand"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/scheduler"
	"raqo/internal/server"
	"raqo/internal/workload"
)

// referenceRecord is a completion's feedback record as the shared cluster
// made it before the observer's record memo: a plan without a planner prediction
// (a Degrade clamp) priced with the live models, skipped when they cannot
// price it, and the observation — signature, query-level prediction, one
// operator sample per modelled stage — built afresh and fed. It reports
// whether it recorded.
func referenceRecord(ob *feedback.Observer, at int64, d *core.Decision, res *execsim.Result) bool {
	predicted, money := d.Time, d.Money
	if predicted <= 0 {
		v, err := ob.Recal.Models().PlanVector(d.Plan, cost.DefaultPricing())
		if err != nil {
			return false
		}
		predicted, money = v.Time, v.Money
	}
	if ob.Now != nil {
		at = ob.Now()
	}
	models := ob.Recal.Models()
	o := feedback.Observation{
		Signature:        d.Plan.SignatureWithResources(),
		Engine:           cloud.Engine().Name,
		PredictedSeconds: predicted,
		ObservedSeconds:  res.Seconds,
		PredictedDollars: money,
		ObservedDollars:  res.Money,
		ObservedAt:       at,
	}
	for i := range res.Stages {
		st := &res.Stages[i]
		top := st.Stage.Top
		if top == nil || top.IsScan() {
			continue
		}
		m, ok := models.For(top.Algo)
		if !ok {
			continue
		}
		ss := top.SmallerInputGB()
		cs := st.Resources.ContainerGB
		nc := float64(st.Resources.Containers)
		o.Operators = append(o.Operators, feedback.OperatorSample{
			Algo:             top.Algo.String(),
			SSGB:             ss,
			CSGB:             cs,
			NC:               nc,
			PredictedSeconds: m.Cost(ss, cs, nc),
			ObservedSeconds:  st.Seconds,
		})
	}
	_ = ob.Recal.Feed(o)
	return true
}

// servedSide is one shared cluster configured as the server configures
// it — the serving optimizer, the recalibrator's swaps repointing it, and
// an observer stamping records with its own clock — with either
// cloud.FeedbackHook or referenceRecord as its completion hook.
type servedSide struct {
	opt     *core.Optimizer
	rec     *feedback.Recalibrator
	ob      *feedback.Observer
	submit  func(tenant, query string, policy scheduler.Policy) error
	degrade func() int64
}

const recordEvery = 400

func newServedSide(t *testing.T, reference bool) *servedSide {
	t.Helper()
	opt, err := server.NewOptimizer(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.TPCHQueries(catalog.TPCH(100))
	if err != nil {
		t.Fatal(err)
	}
	s := &servedSide{opt: opt}
	s.rec = feedback.NewRecalibrator(feedback.NewStore(1<<14, nil), feedback.NewDetector(feedback.DriftConfig{}), opt.Models())
	s.rec.OnSwap(func(_ feedback.Recalibration, info *feedback.ModelInfo) { _ = opt.SetModels(info.Models) })
	clock := int64(1_700_000_000)
	s.ob = &feedback.Observer{Recal: s.rec, Now: func() int64 { clock++; return clock }}
	wl := cloud.Workload{Base: opt.Conditions(), Optimizer: opt, Queries: queries, Tenants: []cloud.TenantConfig{
		{Name: "etl", Weight: 3}, {Name: "adhoc", Weight: 2}, {Name: "batch", Weight: 1},
	}}
	cfg, err := cloud.SharedCluster(wl, 100)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		since := 0
		cfg.Hooks.Completed = func(o *cloud.Outcome, d *core.Decision, res *execsim.Result) error {
			if !referenceRecord(s.ob, int64(o.Finish), d, res) {
				return nil
			}
			if since++; since >= recordEvery {
				since = 0
				_, _, err := s.rec.MaybeRecalibrate()
				return err
			}
			return nil
		}
	} else {
		cfg.Hooks.Completed, _ = cloud.FeedbackHook(s.ob, nil, recordEvery)
	}
	e, err := cloud.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.submit = func(tenant, query string, policy scheduler.Policy) error {
		_, err := submitWait(e, tenant, query, policy)
		return err
	}
	s.degrade = func() int64 { return e.Counts().Degraded }
	return s
}

// TestCompletionRecordsMatchReference drives two server-configured shared
// clusters through one seeded stream of 6 000 submits under a policy mix
// — one through cloud.FeedbackHook and the observer's record memo, one
// through referenceRecord — with a recalibration, an optimizer-only model
// change and a fleet Install mid-stream, and requires the stores to hold
// the same observations, floats compared by bits.
func TestCompletionRecordsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("6 000 submits on two clusters")
	}
	got, want := newServedSide(t, false), newServedSide(t, true)
	rng := rand.New(rand.NewSource(48))
	tenants := []string{"etl", "adhoc", "batch"}
	queries := []string{workload.Q12, workload.Q3, workload.Q2, workload.All}
	policies := []scheduler.Policy{scheduler.Reoptimize, scheduler.Reoptimize, scheduler.Wait, scheduler.Degrade}
	for i := 0; i < 6000; i++ {
		switch i {
		case 1500:
			for _, s := range []*servedSide{got, want} {
				if _, err := s.rec.Recalibrate(); err != nil {
					t.Fatal(err)
				}
			}
		case 3000:
			for _, s := range []*servedSide{got, want} {
				if err := s.opt.SetModels(cost.PaperModels()); err != nil {
					t.Fatal(err)
				}
			}
		case 4500:
			for _, s := range []*servedSide{got, want} {
				if !s.rec.Install(s.rec.Current().Version+1, cost.PaperModels(), 0) {
					t.Fatal("Install refused a newer version")
				}
			}
		}
		tenant, query, policy := tenants[rng.Intn(len(tenants))], queries[rng.Intn(len(queries))], policies[rng.Intn(len(policies))]
		errGot, errWant := got.submit(tenant, query, policy), want.submit(tenant, query, policy)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("submit %d %s/%s %v: %v, reference %v", i, tenant, query, policy, errGot, errWant)
		}
	}
	if got.degrade() == 0 {
		t.Fatal("no degraded admission: the clamped-plan pricing is untested")
	}
	g, w := got.rec.Store().Snapshot(), want.rec.Store().Snapshot()
	if len(g) != len(w) || len(g) < 5000 {
		t.Fatalf("%d observations, reference %d", len(g), len(w))
	}
	bits := math.Float64bits
	for i := range g {
		a, b := &g[i], &w[i]
		same := a.Signature == b.Signature && a.Engine == b.Engine && a.ObservedAt == b.ObservedAt &&
			bits(a.PredictedSeconds) == bits(b.PredictedSeconds) && bits(a.ObservedSeconds) == bits(b.ObservedSeconds) &&
			bits(float64(a.PredictedDollars)) == bits(float64(b.PredictedDollars)) &&
			bits(float64(a.ObservedDollars)) == bits(float64(b.ObservedDollars)) && len(a.Operators) == len(b.Operators)
		for j := 0; same && j < len(a.Operators); j++ {
			x, y := &a.Operators[j], &b.Operators[j]
			same = x.Algo == y.Algo && bits(x.SSGB) == bits(y.SSGB) && bits(x.CSGB) == bits(y.CSGB) && bits(x.NC) == bits(y.NC) &&
				bits(x.PredictedSeconds) == bits(y.PredictedSeconds) && bits(x.ObservedSeconds) == bits(y.ObservedSeconds)
		}
		if !same {
			t.Fatalf("observation %d:\n got %+v\nwant %+v", i, *a, *b)
		}
	}
}
