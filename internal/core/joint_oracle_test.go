package core_test

import (
	"math"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/optimizertest"
	"raqo/internal/optimizer/selinger"
	"raqo/internal/plan"
	"raqo/internal/resource"
)

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

// TestJointMatchesExhaustive holds the Selinger DP to
// optimizertest.Optimum's left-deep optimum, to 1e-9, on every connected
// TPC-H list of 2 to 5 relations (65 at SF 100). Under the size coster
// that checks the plan search alone. Under the served coster — trained
// models, memory-aware for execsim.Hive() (cloud.Engine()), on
// cluster.Default() — over resource.BruteForce, which scans each
// operator's whole resource lattice, Optimum is the exhaustive joint
// (plan, resources) optimum, and the DP's joint answer must equal it.
func TestJointMatchesExhaustive(t *testing.T) {
	s := catalog.TPCH(100)
	lists := connectedLists(s, optimizertest.MaxOptimumRelations)
	if len(lists) != 65 {
		t.Fatalf("%d connected lists of 2 to %d relations, want 65", len(lists), optimizertest.MaxOptimumRelations)
	}
	engine := execsim.Hive()
	size := func() optimizer.OperatorCoster {
		return &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}
	}
	// Each served coster keeps its own memo across the lists, as the server
	// does; behind brute force, a pure function of the operator's model,
	// build side and conditions, a memo hit is what the miss computed.
	served := func() optimizer.OperatorCoster {
		return &core.Coster{Models: trainedModels(t), Pricing: cost.DefaultPricing(),
			Resources: &resource.BruteForce{}, Cond: cluster.Default(), Engine: &engine, Memo: core.NewCostMemo()}
	}
	for _, c := range []struct {
		name       string
		dp, oracle optimizer.OperatorCoster
	}{
		{"size", size(), size()},
		{"served over brute force", served(), served()},
	} {
		for _, rels := range lists {
			q, err := plan.NewQuery(s, rels...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (&selinger.Planner{Coster: c.dp}).Plan(q)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, rels, err)
			}
			_, want, err := optimizertest.Optimum(c.oracle, q)
			if err != nil {
				t.Fatalf("%s %v: optimum: %v", c.name, rels, err)
			}
			if math.Abs(got.Cost.Seconds-want.Cost.Seconds) > 1e-9*want.Cost.Seconds {
				t.Errorf("%s %v: DP %v s, left-deep optimum %v s\nDP:\n%s\noptimum:\n%s",
					c.name, rels, got.Cost.Seconds, want.Cost.Seconds, got.Plan, want.Plan)
			}
		}
	}
}
