package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/optimizer/optimizertest"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// servedRequests are the /v1/optimize bodies the order oracle sends: the
// four TPC-H evaluation queries, and relation lists whose small build
// sides (region, nation, supplier) sit far below a gigabyte next to
// larger neighbours.
var servedRequests = []OptimizeRequest{
	{Query: workload.Q12},
	{Query: workload.Q3},
	{Query: workload.Q2},
	{Query: workload.All},
	{Relations: []string{catalog.Region, catalog.Nation, catalog.Supplier}},
	{Relations: []string{catalog.Supplier, catalog.Nation, catalog.Customer, catalog.Orders}},
}

// servedModes are requests in the other resource-planning modes; only
// FuzzServedOrder sends them.
var servedModes = []OptimizeRequest{
	{Query: workload.Q2, Mode: "budget", Containers: 20, ContainerGB: 4},
	{Relations: []string{catalog.Nation, catalog.Supplier, catalog.PartSupp}, Mode: "budget", Containers: 8, ContainerGB: 10},
}

// servedOracle holds what a fresh optimizer answers: core.New's defaults
// (a bare hill climb, no memo) with the given models, planning
// memory-aware for cloud.Engine() as the server does, a new optimizer for
// every decision, so nothing an earlier request left behind can reach it.
type servedOracle struct {
	sch *catalog.Schema
	// models are the sets a sequence may run under: the served set, and a
	// set trained on the Spark profile, whose plans and times differ.
	models []*cost.Models
	want   map[[2]int]*core.Decision
}

func newServedOracle(t testing.TB) *servedOracle {
	t.Helper()
	spark, err := workload.TrainedModels(execsim.Spark())
	if err != nil {
		t.Fatal(err)
	}
	return &servedOracle{
		sch:    catalog.TPCH(100),
		models: []*cost.Models{servedModels(t), spark},
		want:   map[[2]int]*core.Decision{},
	}
}

// decision is the fresh optimizer's answer to req under model set m.
func (o *servedOracle) decision(t testing.TB, m, i int, req OptimizeRequest) *core.Decision {
	t.Helper()
	if d, ok := o.want[[2]int{m, i}]; ok {
		return d
	}
	engine := cloud.Engine()
	opt, err := core.New(cluster.Default(), core.Options{Models: o.models[m], Engine: &engine})
	if err != nil {
		t.Fatal(err)
	}
	var q *plan.Query
	if req.Query != "" {
		q, err = workload.TPCHQuery(o.sch, req.Query)
	} else {
		q, err = plan.NewQuery(o.sch, req.Relations...)
	}
	if err != nil {
		t.Fatal(err)
	}
	var d *core.Decision
	switch req.Mode {
	case "":
		d, err = opt.Optimize(q)
	case "budget":
		d, err = opt.OptimizeForBudget(q, req.Containers, req.ContainerGB)
	default:
		t.Fatalf("no oracle for mode %q", req.Mode)
	}
	if err != nil {
		t.Fatal(err)
	}
	o.want[[2]int{m, i}] = d
	return d
}

// newServed builds a server planning under model set m. Set 0 is left to
// the server, which trains the set `raqo serve` plans on. With supplied,
// its Config also carries the 1 GB nearest-neighbour resource-plan cache
// that once served Q2 at 9.08 s after Q3 and the Spark engine, both of
// which the server must ignore. The caller closes it.
func (o *servedOracle) newServed(t testing.TB, m int, supplied bool) *Server {
	t.Helper()
	var opts core.Options
	if m != 0 {
		opts.Models = o.models[m]
	}
	if supplied {
		opts.Resource = &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 1}
		spark := execsim.Spark()
		opts.Engine = &spark
	}
	s, err := New(Config{Options: opts, RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// check sends req (number i of its list) through the server's handler and
// fails unless the 200 it answers carries the fresh decision's modelled
// time, plan and per-operator resources.
func (o *servedOracle) check(t testing.TB, s *Server, m, i int, req OptimizeRequest, history []string) {
	t.Helper()
	got, p := servePlan(t, s, req, fmt.Sprintf(" after %v", history))
	want := o.decision(t, m, i, req)
	if math.Float64bits(got.TimeSeconds) != math.Float64bits(want.Time) || p.SignatureWithResources() != want.Plan.SignatureWithResources() {
		t.Fatalf("%+v after %v under model set %d:\n served %.6gs %s\n fresh  %.6gs %s",
			req, history, m, got.TimeSeconds, p.SignatureWithResources(), want.Time, want.Plan.SignatureWithResources())
	}
}

// servePlan sends req through s's handler as a /v1/optimize body and
// returns the answer with its plan decoded; anything but a 200 fails t,
// with where after the body in the message.
func servePlan(t testing.TB, s *Server, req OptimizeRequest, where string) (wireOptimize, *plan.Node) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s%s: HTTP %d: %s", body, where, rec.Code, rec.Body)
	}
	var got wireOptimize
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	p, err := plan.Decode(s.sch, got.Plan)
	if err != nil {
		t.Fatalf("%s%s: %v", body, where, err)
	}
	return got, p
}

// TestServedMatchesFresh sends every permutation of servedRequests to a
// new server, once under the served models as `raqo serve` builds it, and
// once under the Spark-trained set with a resource planner and engine in
// its Config, and holds each answer to a fresh optimizer's: a served
// decision depends neither on which requests came before it nor on the
// planner or engine a caller supplied.
func TestServedMatchesFresh(t *testing.T) {
	o := newServedOracle(t)
	perm := make([]int, len(servedRequests))
	for i := range perm {
		perm[i] = i
	}
	for m, supplied := range []bool{false, true} {
		permute(perm, len(perm), func(order []int) {
			s := o.newServed(t, m, supplied)
			var history []string
			for _, i := range order {
				req := servedRequests[i]
				o.check(t, s, m, i, req, history)
				history = append(history, req.Query+strings.Join(req.Relations, ","))
			}
			_ = s.Close()
		})
	}
}

// TestServedJointPlansRun sends every connected TPC-H relation list of two
// or more tables, and the four evaluation queries, as a joint
// /v1/optimize under both planners and the served models, and runs each
// answered plan on cloud.Engine(): the server plans memory-aware for the
// engine its arbiters execute on, so no served joint plan runs out of
// memory there.
func TestServedJointPlansRun(t *testing.T) {
	o := newServedOracle(t)
	var reqs []OptimizeRequest
	for _, rels := range connectedLists(o.sch, len(o.sch.Tables())) {
		reqs = append(reqs, OptimizeRequest{Relations: rels})
	}
	if len(reqs) != 90 {
		t.Fatalf("%d connected relation lists, want 90", len(reqs))
	}
	for _, name := range []string{workload.Q12, workload.Q3, workload.Q2, workload.All} {
		reqs = append(reqs, OptimizeRequest{Query: name})
	}
	engine := cloud.Engine()
	for _, planner := range []core.PlannerKind{core.Selinger, core.FastRandomized} {
		s, err := New(Config{Options: core.Options{Planner: planner}, RecalInterval: -1, HistoryInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, req := range reqs {
			_, p := servePlan(t, s, req, fmt.Sprintf(" (%s)", planner))
			if _, err := engine.Execute(p, cost.DefaultPricing()); err != nil {
				failed++
				t.Errorf("%+v (%s): %s: %v", req, planner, p.SignatureWithResources(), err)
			}
		}
		if failed > 0 {
			t.Errorf("%s: %d of %d served plans fail on the engine", planner, failed, len(reqs))
		}
		_ = s.Close()
	}
}

// connectedLists returns every list of 2 to maxRels of s's tables that the
// join graph connects, in table-mask order.
func connectedLists(s *catalog.Schema, maxRels int) [][]string {
	tables := s.Tables()
	var lists [][]string
	for mask := 1; mask < 1<<len(tables); mask++ {
		var rels []string
		for i, name := range tables {
			if mask&(1<<i) != 0 {
				rels = append(rels, name)
			}
		}
		if len(rels) >= 2 && len(rels) <= maxRels && s.Connected(rels) {
			lists = append(lists, rels)
		}
	}
	return lists
}

// TestServedPlannersAgainstOptimum holds the served planners to the
// exhaustive joint (plan, resources) optimum: optimizertest.Optimum over
// the served coster with resource.BruteForce in place of the hill climb,
// on every connected TPC-H list of 2 to 5 relations. The Selinger DP,
// whose resources come from hill climbing, is held to the left-deep
// optimum, and the randomized planner, which searches bushy trees, to the
// bushy one. No served answer may beat its optimum. How many lists come
// out above 1.1× and the worst ratio are pinned as ceilings: they report
// the planners' quality (ROADMAP item 4, the paper's Fig 13) and must not
// get worse.
func TestServedPlannersAgainstOptimum(t *testing.T) {
	sch := catalog.TPCH(100)
	lists := connectedLists(sch, optimizertest.MaxOptimumRelations)
	if len(lists) != 65 {
		t.Fatalf("%d connected lists of 2 to %d relations, want 65", len(lists), optimizertest.MaxOptimumRelations)
	}
	engine := cloud.Engine()
	oracle := &core.Coster{Models: servedModels(t), Pricing: cost.DefaultPricing(), Resources: &resource.BruteForce{},
		Cond: cluster.Default(), Engine: &engine, Memo: core.NewCostMemo()}
	for _, c := range []struct {
		planner core.PlannerKind
		bushy   bool
		above   int     // lists above 1.1× the optimum, at most
		worst   float64 // the worst ratio, at most
	}{
		// Measured: on every list the served DP's answer is the left-deep
		// optimum; its hill climb loses nothing against brute force.
		{core.Selinger, false, 0, 1},
		// Measured at the served seed: 10 of 65, worst 2.1438× (lineitem,
		// nation, orders, partsupp, supplier).
		{core.FastRandomized, true, 10, 2.144},
	} {
		opt, err := NewOptimizer(core.Options{Planner: c.planner, Models: servedModels(t)})
		if err != nil {
			t.Fatal(err)
		}
		above, worst := 0, 1.0
		for _, rels := range lists {
			q, err := plan.NewQuery(sch, rels...)
			if err != nil {
				t.Fatal(err)
			}
			d, err := opt.Optimize(q)
			if err != nil {
				t.Fatalf("%s %v: %v", c.planner, rels, err)
			}
			bushy, leftDeep, err := optimizertest.Optimum(oracle, q)
			if err != nil {
				t.Fatalf("%v: optimum: %v", rels, err)
			}
			want := leftDeep
			if c.bushy {
				want = bushy
			}
			ratio := d.Time / want.Cost.Seconds
			if ratio < 1-1e-9 {
				t.Errorf("%s %v: served %v s beats the optimum %v s\nserved:\n%s\noptimum:\n%s",
					c.planner, rels, d.Time, want.Cost.Seconds, d.Plan, want.Plan)
			}
			if ratio > 1.1 {
				above++
			}
			worst = max(worst, ratio)
		}
		t.Logf("%s: %d of %d lists above 1.1x the optimum, worst %.4fx", c.planner, above, len(lists), worst)
		if above > c.above || worst > c.worst {
			t.Errorf("%s: %d lists above 1.1x (ceiling %d), worst %.4fx (ceiling %.4fx)", c.planner, above, c.above, worst, c.worst)
		}
	}
}

// permute calls visit with every ordering of a[:k] (Heap's algorithm).
func permute(a []int, k int, visit func([]int)) {
	if k <= 1 {
		visit(a)
		return
	}
	for i := 0; i < k-1; i++ {
		permute(a, k-1, visit)
		if k%2 == 0 {
			a[i], a[k-1] = a[k-1], a[i]
		} else {
			a[0], a[k-1] = a[k-1], a[0]
		}
	}
	permute(a, k-1, visit)
}

// maxServedSequence bounds the requests one fuzz input sends.
const maxServedSequence = 32

// FuzzServedOrder turns bytes into a request sequence on a new server:
// the first byte picks the model set (the served or the Spark-trained one)
// and whether the Config supplies a resource planner (see newServed), each
// later byte a request from servedRequests and servedModes, or a
// fleet-style Recalibrator.Install of the other model set. Every answer must equal a fresh optimizer's under
// the set live at the time, and the live /v1/model version never goes
// back.
func FuzzServedOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2})                   // Q2 after Q3, served models
	f.Add([]byte{0, 0, 1, 2, 3})             // the evaluation order
	f.Add([]byte{1, 3, 2, 4, 5, 6})          // All first, Spark-trained models
	f.Add([]byte{0, 2, 8, 1, 2, 7, 8, 2, 4}) // installs between repeats
	f.Add([]byte{1, 4, 5, 7, 0, 6})
	f.Add([]byte{2, 1, 2, 8, 1, 2}) // a supplied cache, Q2 after Q3
	o := newServedOracle(f)
	pool := append(append([]OptimizeRequest(nil), servedRequests...), servedModes...)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := int(data[0]) % len(o.models)
		s := o.newServed(t, m, data[0]&2 != 0)
		defer s.Close()
		var history []string
		version := liveModelVersion(t, s)
		for _, b := range data[1:min(len(data), maxServedSequence+1)] {
			i := int(b) % (len(pool) + 1)
			if i == len(pool) {
				m = (m + 1) % len(o.models)
				if !s.Recalibrator().Install(s.Recalibrator().Current().Version+1, o.models[m], 0) {
					t.Fatal("install of a newer version refused")
				}
				history = append(history, "install")
			} else {
				req := pool[i]
				o.check(t, s, m, i, req, history)
				history = append(history, req.Query+strings.Join(req.Relations, ",")+req.Mode)
			}
			v := liveModelVersion(t, s)
			if v < version {
				t.Fatalf("after %v: /v1/model version went from %d back to %d", history, version, v)
			}
			version = v
		}
	})
}
