package raqo_test

import (
	"encoding/json"
	"strings"
	"testing"

	"raqo"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	schema := raqo.TPCH(100)
	q, err := raqo.NewQuery(schema, "customer", "orders", "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan == nil || d.Time <= 0 {
		t.Fatalf("decision = %+v", d)
	}
	res, err := raqo.Simulate(raqo.Hive(), d.Plan, raqo.DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Usage <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFacadeTrainedModelsFlow(t *testing.T) {
	models, err := raqo.TrainModels(raqo.Hive())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	schema := raqo.TPCH(100)
	q, err := raqo.TPCHQuery(schema, "All")
	if err != nil {
		t.Fatal(err)
	}
	d, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Plan.Joins()); got != 7 {
		t.Errorf("joins = %d", got)
	}
}

func TestFacadeJointBeatsFixedOnSimulator(t *testing.T) {
	// End-to-end value check: the joint plan executed on the simulator
	// should not be slower than the resource-blind plan at a guessed
	// configuration.
	schema := raqo.TPCH(100)
	q, err := raqo.TPCHQuery(schema, "Q3")
	if err != nil {
		t.Fatal(err)
	}
	models, err := raqo.TrainModels(raqo.Hive())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	jointRes, err := raqo.Simulate(raqo.Hive(), joint.Plan, raqo.DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	guess := raqo.Resources{Containers: 10, ContainerGB: 3}
	fixed, err := opt.OptimizeFixed(q, guess)
	if err != nil {
		t.Fatal(err)
	}
	fixedRes, err := raqo.SimulateUniform(raqo.Hive(), fixed.Plan, guess, raqo.DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	if jointRes.Seconds > fixedRes.Seconds {
		t.Errorf("joint simulated %.0fs slower than fixed %.0fs", jointRes.Seconds, fixedRes.Seconds)
	}
}

func TestFacadeRuleFlow(t *testing.T) {
	tree, err := raqo.TrainTreeRule(raqo.Hive())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.Render(), "Data Size") {
		t.Error("rendered tree missing features")
	}
	schema := raqo.TPCH(100)
	base, err := raqo.LeftDeep(schema, raqo.SMJ, "lineitem", "orders", "customer")
	if err != nil {
		t.Fatal(err)
	}
	res := raqo.Resources{Containers: 10, ContainerGB: 9}
	rewritten, err := raqo.ApplyRule(schema, base, tree, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raqo.SimulateUniform(raqo.Hive(), rewritten, res, raqo.DefaultPricing()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRandomSchema(t *testing.T) {
	s, err := raqo.RandomSchema(3, 25)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTables() != 25 {
		t.Errorf("tables = %d", s.NumTables())
	}
	// Deterministic by seed.
	s2, err := raqo.RandomSchema(3, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Edges()) != len(s2.Edges()) {
		t.Error("random schema not deterministic by seed")
	}
}

func TestFacadeExplainAndRobust(t *testing.T) {
	schema := raqo.TPCH(100)
	q, err := raqo.TPCHQuery(schema, "Q3")
	if err != nil {
		t.Fatal(err)
	}
	models, err := raqo.TrainModels(raqo.Hive())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	d, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Explain.
	out, err := opt.Explain(d)
	if err != nil || !strings.Contains(out, "operators") {
		t.Fatalf("explain: %v\n%s", err, out)
	}
	// Robust, across the full cluster and a shrunken one.
	avail := raqo.Conditions{MinContainers: 1, MaxContainers: 8, ContainerStep: 1,
		MinContainerGB: 1, MaxContainerGB: 4, GBStep: 1}
	rd, err := opt.OptimizeRobust(q, []raqo.Conditions{raqo.DefaultConditions(), avail}, raqo.WorstCase)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Plan == nil {
		t.Fatal("no robust plan")
	}
}

func TestFacadeWorkloadComparisonAndJSON(t *testing.T) {
	engine := raqo.Hive()
	models, err := raqo.TrainModels(engine)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{Models: models, Engine: &engine})
	if err != nil {
		t.Fatal(err)
	}
	schema := raqo.TPCH(100)
	report, err := raqo.CompareWorkload(engine, opt, schema, raqo.Resources{Containers: 10, ContainerGB: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.RAQO) == 0 {
		t.Fatal("empty report")
	}
	// JSON round trip through the facade.
	data, err := json.Marshal(report.RAQO[0].Plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := raqo.DecodePlan(schema, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Signature() != report.RAQO[0].Plan.Signature() {
		t.Error("facade JSON round trip changed the plan")
	}
}
