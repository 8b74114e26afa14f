package core

import (
	"math"
	"strings"
	"testing"

	"raqo/internal/cluster"
	"raqo/internal/workload"
)

func robustScenarios() []cluster.Conditions {
	return []cluster.Conditions{
		cluster.Default(), // idle cluster
		{MinContainers: 1, MaxContainers: 10, ContainerStep: 1,
			MinContainerGB: 1, MaxContainerGB: 4, GBStep: 1}, // busy cluster
	}
}

func trainedOptimizer(t *testing.T) *Optimizer {
	t.Helper()
	o, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOptimizeRobustWorstCase(t *testing.T) {
	o := trainedOptimizer(t)
	q := q(t, workload.Q3)
	rd, err := o.OptimizeRobust(q, robustScenarios(), WorstCase)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Plan == nil || len(rd.PerCondition) != 2 {
		t.Fatalf("decision = %+v", rd)
	}
	// Objective is the max of the per-condition values.
	want := math.Max(rd.PerCondition[0], rd.PerCondition[1])
	if math.Abs(rd.Objective-want) > 1e-9 {
		t.Errorf("objective = %v, want max %v", rd.Objective, want)
	}
	// The plan is annotated for the first scenario.
	for _, j := range rd.Plan.Joins() {
		if j.Res.IsZero() {
			t.Error("robust plan unannotated")
		}
	}
	// Conditions restored after the call.
	if o.Conditions() != cluster.Default() {
		t.Error("OptimizeRobust leaked conditions")
	}
}

func TestOptimizeRobustAverageNoWorseThanWorstCasePick(t *testing.T) {
	o := trainedOptimizer(t)
	q := q(t, workload.Q3)
	avg, err := o.OptimizeRobust(q, robustScenarios(), Average)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := o.OptimizeRobust(q, robustScenarios(), WorstCase)
	if err != nil {
		t.Fatal(err)
	}
	// The average-objective pick must have the best average; compute the
	// worst-case pick's average and compare.
	wcAvg := (wc.PerCondition[0] + wc.PerCondition[1]) / 2
	if avg.Objective > wcAvg+1e-9 {
		t.Errorf("average pick (%v) worse than worst-case pick's average (%v)", avg.Objective, wcAvg)
	}
}

func TestOptimizeRobustValidation(t *testing.T) {
	o := trainedOptimizer(t)
	q := q(t, workload.Q12)
	if _, err := o.OptimizeRobust(q, nil, WorstCase); err == nil {
		t.Error("no scenarios accepted")
	}
	if _, err := o.OptimizeRobust(q, []cluster.Conditions{{}}, WorstCase); err == nil {
		t.Error("invalid scenario accepted")
	}
	if _, err := o.OptimizeRobust(q, robustScenarios(), RobustObjective(9)); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestRobustObjectiveString(t *testing.T) {
	if WorstCase.String() != "worst-case" || Average.String() != "average" {
		t.Error("objective names")
	}
}

func TestExplainRendersOperators(t *testing.T) {
	o := trainedOptimizer(t)
	q := q(t, workload.Q3)
	d, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	out, err := o.Explain(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"joint query/resource plan", "cluster conditions", "operators", "resources=", "would cost", "plan tree"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if _, err := o.Explain(nil); err == nil {
		t.Error("nil decision accepted")
	}
}
