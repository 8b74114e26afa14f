package core

import (
	"strings"
	"sync"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/optimizer"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

var (
	trainedOnce sync.Once
	trained     *cost.Models
	trainedErr  error
)

// trainedModels is the model set the server plans on, trained on the Hive
// simulator once per test binary.
func trainedModels(t testing.TB) *cost.Models {
	t.Helper()
	trainedOnce.Do(func() { trained, trainedErr = workload.TrainedModels(execsim.Hive()) })
	if trainedErr != nil {
		t.Fatal(trainedErr)
	}
	return trained
}

func testSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	return catalog.TPCH(100)
}

func q(t *testing.T, name string) *plan.Query {
	t.Helper()
	query, err := workload.TPCHQuery(testSchema(t), name)
	if err != nil {
		t.Fatal(err)
	}
	return query
}

func TestCosterFixedMode(t *testing.T) {
	c := &Coster{
		Models:  cost.PaperModels(),
		Pricing: cost.DefaultPricing(),
		Fixed:   plan.Resources{Containers: 10, ContainerGB: 3},
		Cond:    cluster.Default(),
	}
	p, err := plan.LeftDeep(testSchema(t), plan.SMJ, catalog.Lineitem, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	join := p.Joins()[0]
	oc, err := c.CostOperator(join)
	if err != nil {
		t.Fatal(err)
	}
	if join.Res != c.Fixed {
		t.Errorf("Res = %v, want fixed %v", join.Res, c.Fixed)
	}
	if oc.Seconds <= 0 || oc.Money <= 0 {
		t.Errorf("cost = %+v", oc)
	}
	// Scans are free.
	scan, err := plan.NewScan(testSchema(t), catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if oc, err := c.CostOperator(scan); err != nil || oc.Seconds != 0 {
		t.Errorf("scan cost = %+v, %v", oc, err)
	}
}

func TestCosterResourceMode(t *testing.T) {
	hc := &resource.HillClimb{}
	c := &Coster{
		Models:    cost.PaperModels(),
		Pricing:   cost.DefaultPricing(),
		Resources: hc,
		Cond:      cluster.Default(),
	}
	p, err := plan.LeftDeep(testSchema(t), plan.SMJ, catalog.Lineitem, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	join := p.Joins()[0]
	if _, err := c.CostOperator(join); err != nil {
		t.Fatal(err)
	}
	if join.Res.IsZero() {
		t.Error("resource mode left operator unannotated")
	}
	if !c.Cond.Contains(join.Res) {
		t.Errorf("chosen resources %v outside conditions", join.Res)
	}
	if hc.Evaluations() == 0 {
		t.Error("no resource iterations recorded")
	}
}

func TestCosterErrors(t *testing.T) {
	p, err := plan.LeftDeep(testSchema(t), plan.SMJ, catalog.Lineitem, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	join := p.Joins()[0]
	if _, err := (&Coster{}).CostOperator(join); err == nil {
		t.Error("nil models accepted")
	}
	noModel := &Coster{Models: cost.NewModels(), Fixed: plan.Resources{Containers: 1, ContainerGB: 1}}
	if _, err := noModel.CostOperator(join); err == nil {
		t.Error("missing algo model accepted")
	}
	neither := &Coster{Models: cost.PaperModels()}
	if _, err := neither.CostOperator(join); err == nil {
		t.Error("no planner and no fixed config accepted")
	}
}

func TestOptimizeJoint(t *testing.T) {
	o, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.QueryNames {
		d, err := o.Optimize(q(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Plan == nil || d.Time <= 0 || d.Money <= 0 {
			t.Fatalf("%s: decision = %+v", name, d)
		}
		if d.ResourceIterations == 0 {
			t.Errorf("%s: no resource iterations", name)
		}
		for _, j := range d.Plan.Joins() {
			if j.Res.IsZero() {
				t.Errorf("%s: unannotated join", name)
			}
			if !o.Conditions().Contains(j.Res) {
				t.Errorf("%s: resources %v off-grid", name, j.Res)
			}
		}
	}
}

func TestJointNoWorseThanAnyFixed(t *testing.T) {
	// With brute-force resource planning, the joint optimum must be at
	// least as good (in modeled time) as query planning at any fixed
	// configuration, because the fixed configuration is inside the joint
	// search space.
	cond := cluster.Default()
	o, err := New(cond, Options{Models: trainedModels(t), Resource: &resource.BruteForce{}})
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, workload.Q3)
	joint, err := o.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []plan.Resources{
		{Containers: 10, ContainerGB: 3},
		{Containers: 50, ContainerGB: 5},
		{Containers: 100, ContainerGB: 10},
	} {
		fixed, err := o.OptimizeFixed(query, r)
		if err != nil {
			t.Fatal(err)
		}
		if joint.Time > fixed.Time+1e-9 {
			t.Errorf("joint time %v worse than fixed %v at %v", joint.Time, fixed.Time, r)
		}
	}
}

func TestOptimizeFixedValidation(t *testing.T) {
	o, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.OptimizeFixed(q(t, workload.Q12), plan.Resources{Containers: 999, ContainerGB: 1}); err == nil {
		t.Error("off-cluster fixed config accepted")
	}
}

func TestOptimizeForBudget(t *testing.T) {
	o, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := o.OptimizeForBudget(q(t, workload.Q3), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range d.Plan.Joins() {
		if j.Res.Containers > 20 || j.Res.ContainerGB > 4 {
			t.Errorf("budgeted plan exceeds quota: %v", j.Res)
		}
	}
	if _, err := o.OptimizeForBudget(q(t, workload.Q3), 0, 4); err == nil {
		t.Error("empty quota accepted")
	}
}

func TestPlanResources(t *testing.T) {
	o, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.LeftDeep(testSchema(t), plan.SMJ, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	d, err := o.PlanResources(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan != p {
		t.Error("PlanResources should annotate in place")
	}
	for _, j := range p.Joins() {
		if j.Res.IsZero() {
			t.Error("operator unannotated")
		}
	}
	if d.Money <= 0 || d.ResourceIterations == 0 {
		t.Errorf("decision = %+v", d)
	}
}

func TestOptimizeForPrice(t *testing.T) {
	o, err := New(cluster.Default(), Options{Models: trainedModels(t), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, workload.Q3)
	// First find the unconstrained cost, then budget slightly above the
	// cheapest plan's money.
	free, err := o.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	d, err := o.OptimizeForPrice(query, free.Money*4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Money > free.Money*4 {
		t.Errorf("price mode exceeded budget: %v > %v", d.Money, free.Money*4)
	}
	// Tiny budget: must fail with a helpful error.
	if _, err := o.OptimizeForPrice(query, free.Money/1e6); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("tiny budget: err = %v", err)
	}
	if _, err := o.OptimizeForPrice(query, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestReoptimizeOnClusterChange(t *testing.T) {
	o, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, workload.Q3)
	before, err := o.Optimize(query)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster shrinks drastically: only tiny containers remain.
	shrunk := cluster.Conditions{
		MinContainers: 1, MaxContainers: 8, ContainerStep: 1,
		MinContainerGB: 1, MaxContainerGB: 2, GBStep: 1,
	}
	after, changed, err := o.Reoptimize(query, before, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("drastic cluster change should alter the joint plan")
	}
	for _, j := range after.Plan.Joins() {
		if !shrunk.Contains(j.Res) {
			t.Errorf("re-optimized resources %v outside new conditions", j.Res)
		}
	}
	// Same conditions: nothing changes.
	_, changed, err = o.Reoptimize(query, after, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("unchanged conditions should keep the plan")
	}
	if _, _, err := o.Reoptimize(query, nil, shrunk); err == nil {
		t.Error("nil previous decision accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(cluster.Conditions{}, Options{Models: trainedModels(t)}); err == nil {
		t.Error("invalid conditions accepted")
	}
	if _, err := New(cluster.Default(), Options{}); err == nil {
		t.Error("nil models accepted")
	}
	if _, err := New(cluster.Default(), Options{Models: trainedModels(t)}); err != nil {
		t.Fatal(err)
	}
}

func TestFastRandomizedMode(t *testing.T) {
	o, err := New(cluster.Default(), Options{Models: trainedModels(t), Planner: FastRandomized, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	d, err := o.Optimize(q(t, workload.All))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Plan.Joins()) != 7 {
		t.Errorf("joins = %d", len(d.Plan.Joins()))
	}
	if d.PlansConsidered == 0 || d.ResourceIterations == 0 {
		t.Errorf("metrics = %+v", d)
	}
}

func TestCachedResourcePlanner(t *testing.T) {
	cache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.1}
	o, err := New(cluster.Default(), Options{Models: trainedModels(t), Resource: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Optimize(q(t, workload.All)); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() == 0 {
		t.Error("planning All should produce cache hits (repeated sub-plan sizes)")
	}
}

func TestPlannerKindString(t *testing.T) {
	if Selinger.String() != "selinger" || FastRandomized.String() != "fast-randomized" {
		t.Error("planner kind names")
	}
}

var _ optimizer.Planner = (*selingerCheck)(nil)

// selingerCheck only exists to keep the optimizer import honest in this
// package's tests.
type selingerCheck struct{ optimizer.Planner }
