package core

import (
	"strings"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

func TestMemoryAwareCosterRejectsOversizedBroadcast(t *testing.T) {
	s := catalog.TPCH(100)
	// lineitem (71.5 GB) as a broadcast build side cannot fit any 10 GB
	// container.
	li, err := plan.NewScan(s, catalog.Lineitem)
	if err != nil {
		t.Fatal(err)
	}
	o, err := plan.NewScan(s, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	big, err := plan.NewJoin(s, plan.BHJ, li, o)
	if err != nil {
		t.Fatal(err)
	}
	engine := execsim.Hive()
	models := trainedModels(t)
	c := &Coster{
		Models:    models,
		Resources: &resource.HillClimb{},
		Cond:      cluster.Default(),
		Engine:    &engine,
	}
	if _, err := c.CostOperator(big); err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("oversized broadcast: err = %v", err)
	}
	if c.Pruned() != 1 {
		t.Errorf("pruned = %d, want 1", c.Pruned())
	}
	// The orders build side (15.4 GB at SF 100) also cannot fit... sample
	// it down to something that fits only large containers.
	if err := s.SetTableSize(catalog.Orders, 6<<30); err != nil {
		t.Fatal(err)
	}
	li2, _ := plan.NewScan(s, catalog.Lineitem)
	o2, _ := plan.NewScan(s, catalog.Orders)
	fits, err := plan.NewJoin(s, plan.BHJ, li2, o2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CostOperator(fits); err != nil {
		t.Fatalf("6GB build side should fit somewhere under 10GB max: %v", err)
	}
	// And the chosen container must actually hold the hash side.
	if cap := engine.HashCapacityGB(fits.Res.ContainerGB, 1); fits.SmallerInputGB() > cap {
		t.Errorf("chosen %v cannot hold %.2f GB (budget %.2f)", fits.Res, fits.SmallerInputGB(), cap)
	}
}

func TestMemoryAwareFixedMode(t *testing.T) {
	s := catalog.TPCH(100)
	if err := s.SetTableSize(catalog.Orders, 6<<30); err != nil {
		t.Fatal(err)
	}
	p, err := plan.LeftDeep(s, plan.BHJ, catalog.Lineitem, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	engine := execsim.Hive()
	models := trainedModels(t)
	c := &Coster{
		Models: models,
		Fixed:  plan.Resources{Containers: 10, ContainerGB: 3},
		Cond:   cluster.Default(),
		Engine: &engine,
	}
	join := p.Joins()[0]
	if _, err := c.CostOperator(join); err == nil {
		t.Error("6GB build side in a fixed 3GB container accepted")
	}
	c.Fixed = plan.Resources{Containers: 10, ContainerGB: 10}
	if _, err := c.CostOperator(join); err != nil {
		t.Errorf("6GB build side in 10GB containers rejected: %v", err)
	}
}

// With pruning enabled the optimizer never emits a plan whose broadcast
// operators overflow their containers — so the plan always executes on the
// simulator without OOM.
func TestPrunedPlansAlwaysExecute(t *testing.T) {
	engine := execsim.Hive()
	models := trainedModels(t)
	o, err := New(cluster.Default(), Options{Models: models, Engine: &engine})
	if err != nil {
		t.Fatal(err)
	}
	s := catalog.TPCH(100)
	for _, name := range workload.QueryNames {
		query, err := workload.TPCHQuery(s, name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := o.Optimize(query)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := engine.Execute(d.Plan, cost.DefaultPricing()); err != nil {
			t.Errorf("%s: pruned plan still fails execution: %v", name, err)
		}
	}
}
