package core

import (
	"strings"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/execsim"
	"raqo/internal/plan"
)

func TestDefaultRuleThreshold(t *testing.T) {
	r := NewDefaultRule("hive")
	small := RuleInput{DataGB: 0.005, ContainerGB: 3, Containers: 10}
	big := RuleInput{DataGB: 1, ContainerGB: 10, Containers: 10}
	if r.Choose(small) != plan.BHJ {
		t.Error("5MB should broadcast")
	}
	if r.Choose(big) != plan.SMJ {
		t.Error("1GB should shuffle under the default rule")
	}
	if r.Name() != "hive-default" {
		t.Errorf("name = %q", r.Name())
	}
	// The rule ignores resources entirely.
	if r.Choose(RuleInput{DataGB: 1, ContainerGB: 100, Containers: 1}) != plan.SMJ {
		t.Error("default rule should ignore resources")
	}
	// Figure 10 rendering.
	out := r.Tree().Render(RuleFeatureNames, RuleClassNames)
	if !strings.Contains(out, "Data Size (GB) <= 0.009766") {
		t.Errorf("default tree rendering:\n%s", out)
	}
}

func TestTrainTreeRuleAccuracyAndAwareness(t *testing.T) {
	rule, err := TrainTreeRule(execsim.Hive())
	if err != nil {
		t.Fatal(err)
	}
	if rule.TrainAcc < 0.9 {
		t.Errorf("training accuracy = %.3f, want >= 0.9", rule.TrainAcc)
	}
	if rule.NumLabels < 500 {
		t.Errorf("labels = %d, suspiciously few", rule.NumLabels)
	}
	// Resource awareness: same data size, different resources, different
	// decision — the whole point of Figure 11 vs Figure 10. 3.4 GB fits
	// comfortably at 9 GB containers (BHJ) but cannot broadcast at 2 GB.
	lowMem := rule.Choose(RuleInput{DataGB: 3.4, ContainerGB: 2, Containers: 10})
	highMem := rule.Choose(RuleInput{DataGB: 3.4, ContainerGB: 9, Containers: 10})
	if lowMem != plan.SMJ || highMem != plan.BHJ {
		t.Errorf("tree not resource-aware: lowMem=%v highMem=%v", lowMem, highMem)
	}
	// Parallelism awareness: high container counts favor SMJ.
	fewCont := rule.Choose(RuleInput{DataGB: 3.4, ContainerGB: 9, Containers: 10})
	manyCont := rule.Choose(RuleInput{DataGB: 3.4, ContainerGB: 9, Containers: 100})
	if fewCont != plan.BHJ || manyCont != plan.SMJ {
		t.Errorf("tree not parallelism-aware: few=%v many=%v", fewCont, manyCont)
	}
	// Paper: maximum path length 6-7 for the RAQO trees.
	if d := rule.Tree.Depth(); d > 7 {
		t.Errorf("tree depth = %d, want <= 7", d)
	}
	if !strings.Contains(rule.Render(), "Container Size (GB)") {
		t.Error("rendered tree should branch on resources")
	}
	if rule.Name() != "hive-raqo-tree" {
		t.Errorf("name = %q", rule.Name())
	}
}

func TestTreeRuleBeatsDefaultRule(t *testing.T) {
	// Measured on the simulator, the RAQO tree must pick the faster
	// implementation far more often than the 10 MB default rule (the
	// paper: "the default optimizer rules are way off").
	engine := execsim.Hive()
	tree, err := TrainTreeRule(engine)
	if err != nil {
		t.Fatal(err)
	}
	def := NewDefaultRule("hive")
	wins := map[string]int{}
	total := 0
	for _, ss := range []float64{0.3, 0.9, 1.8, 2.7, 4.1, 5.5, 7.2} {
		for _, cs := range []float64{1.5, 3.5, 5.5, 7.5, 9.5} {
			for _, nc := range []int{8, 15, 25, 50, 90} {
				r := plan.Resources{Containers: nc, ContainerGB: cs}
				best, _, err := engine.BestJoin(ss, 77, r)
				if err != nil {
					continue
				}
				total++
				in := RuleInput{DataGB: ss, ContainerGB: cs, Containers: nc}
				if tree.Choose(in) == best {
					wins["tree"]++
				}
				if def.Choose(in) == best {
					wins["default"]++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no feasible evaluation points")
	}
	treeAcc := float64(wins["tree"]) / float64(total)
	defAcc := float64(wins["default"]) / float64(total)
	if treeAcc < 0.85 {
		t.Errorf("tree accuracy on held-out grid = %.3f, want >= 0.85", treeAcc)
	}
	if treeAcc <= defAcc {
		t.Errorf("tree (%.3f) should beat default rule (%.3f)", treeAcc, defAcc)
	}
}

func TestTrainTreeRuleSpark(t *testing.T) {
	rule, err := TrainTreeRule(execsim.Spark())
	if err != nil {
		t.Fatal(err)
	}
	if rule.TrainAcc < 0.9 {
		t.Errorf("spark accuracy = %.3f", rule.TrainAcc)
	}
	if rule.Name() != "spark-raqo-tree" {
		t.Errorf("name = %q", rule.Name())
	}
}

// TestTrainTreeRuleRejectsInvalidEngine: an engine whose constants the
// simulator rejects trains no tree.
func TestTrainTreeRuleRejectsInvalidEngine(t *testing.T) {
	engine := execsim.Hive()
	engine.MapRate = 0
	if rule, err := TrainTreeRule(engine); err == nil {
		t.Fatalf("trained %q on a zero MapRate", rule.Name())
	}
}

func TestApplyRuleRewritesPlan(t *testing.T) {
	s := catalog.TPCH(100)
	p, err := plan.LeftDeep(s, plan.SMJ, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	rule, err := TrainTreeRule(execsim.Hive())
	if err != nil {
		t.Fatal(err)
	}
	r := plan.Resources{Containers: 10, ContainerGB: 9}
	out, err := ApplyRule(s, p, rule, r)
	if err != nil {
		t.Fatal(err)
	}
	// Same join order, annotated resources.
	if len(out.Joins()) != 2 {
		t.Fatalf("joins = %d", len(out.Joins()))
	}
	for _, j := range out.Joins() {
		if j.Res != r {
			t.Errorf("join Res = %v, want %v", j.Res, r)
		}
	}
	// Customer (2.3 GB) against the big intermediate at 9 GB containers
	// should broadcast under the RAQO tree.
	top := out
	if top.Algo != plan.BHJ {
		t.Errorf("top join = %v, want BHJ for 2.3GB build side at 9GB containers", top.Algo)
	}
	if _, err := ApplyRule(s, nil, rule, r); err == nil {
		t.Error("nil plan accepted")
	}
}

func TestAlgoClassRoundTrip(t *testing.T) {
	for _, a := range plan.Algos {
		if algoOf(classOf(a)) != a {
			t.Errorf("round trip failed for %v", a)
		}
	}
}
