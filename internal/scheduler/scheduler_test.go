package scheduler_test

import (
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/workload"
)

// optimum is TPC-H Q3's joint plan on the full default cluster under the
// trained models.
func optimum(t *testing.T) *plan.Node {
	t.Helper()
	s := catalog.TPCH(100)
	q, err := workload.TPCHQuery(s, workload.Q3)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(cluster.Default(), core.Options{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	d, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return d.Plan
}

func TestPolicyString(t *testing.T) {
	if scheduler.Wait.String() != "wait" || scheduler.Degrade.String() != "degrade" || scheduler.Reoptimize.String() != "reoptimize" {
		t.Error("policy names")
	}
}

// TestFitsBoundaries pins the admission predicate at its edges: a request
// exactly equal to the offer fits (including the 1e-9 float tolerance on
// the GB axis), and zero-container conditions admit nothing.
func TestFitsBoundaries(t *testing.T) {
	p := optimum(t)
	req := scheduler.MaxRequested(p)
	if req.Containers < 1 || req.ContainerGB <= 0 {
		t.Fatalf("implausible optimum request: %+v", req)
	}
	exact := cluster.Conditions{
		MinContainers: 1, MaxContainers: req.Containers, ContainerStep: 1,
		MinContainerGB: 1, MaxContainerGB: req.ContainerGB, GBStep: 1,
	}
	if !scheduler.Fits(p, exact) {
		t.Error("exact-equal offer should fit")
	}
	within := exact
	within.MaxContainerGB = req.ContainerGB - 1e-10 // inside the float tolerance
	if !scheduler.Fits(p, within) {
		t.Error("offer within the 1e-9 GB tolerance should fit")
	}
	short := exact
	short.MaxContainers = req.Containers - 1
	if scheduler.Fits(p, short) {
		t.Error("one container short should not fit")
	}
	small := exact
	small.MaxContainerGB = req.ContainerGB - 1e-6
	if scheduler.Fits(p, small) {
		t.Error("meaningfully smaller containers should not fit")
	}
	if scheduler.Fits(p, cluster.Conditions{}) {
		t.Error("zero-container conditions should admit nothing")
	}
}

// TestParsePolicy round-trips every policy name and rejects the rest.
func TestParsePolicy(t *testing.T) {
	for _, p := range []scheduler.Policy{scheduler.Wait, scheduler.Degrade, scheduler.Reoptimize} {
		got, err := scheduler.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, bad := range []string{"", "WAIT", "requeue"} {
		if _, err := scheduler.ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}
