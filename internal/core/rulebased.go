package core

import (
	"fmt"
	"math"

	"raqo/internal/catalog"
	"raqo/internal/dtree"
	"raqo/internal/execsim"
	"raqo/internal/plan"
)

// RuleInput is what a join-implementation rule sees: the size of the
// smaller join input and the resources the operator would run with.
type RuleInput struct {
	DataGB      float64 // smaller relation size
	ContainerGB float64
	Containers  int
}

// Rule picks a join operator implementation — the decision Hive and Spark
// make with their built-in 10 MB rule, and that RAQO makes with a
// resource-aware decision tree.
type Rule interface {
	Choose(in RuleInput) plan.JoinAlgo
	Name() string
}

// RuleFeatureNames are the features of tree rules, in vector order.
var RuleFeatureNames = []string{"Data Size (GB)", "Container Size (GB)", "Concurrent Containers"}

// RuleClassNames maps class indices to operator names for rendering.
var RuleClassNames = []string{plan.SMJ.String(), plan.BHJ.String()}

func featuresOf(in RuleInput) []float64 {
	return []float64{in.DataGB, in.ContainerGB, float64(in.Containers)}
}

// DefaultRule is the Figure 10 rule both Hive and Spark ship with: pick a
// broadcast join when the smaller relation is under a fixed threshold
// (10 MB by default), regardless of resources.
type DefaultRule struct {
	ThresholdGB float64
	Engine      string
}

// NewDefaultRule returns an engine's stock rule with the 10 MB threshold.
func NewDefaultRule(engine string) *DefaultRule {
	return &DefaultRule{ThresholdGB: 10.0 / 1024, Engine: engine}
}

// Choose implements Rule.
func (d *DefaultRule) Choose(in RuleInput) plan.JoinAlgo {
	if in.DataGB <= d.ThresholdGB {
		return plan.BHJ
	}
	return plan.SMJ
}

// Name implements Rule.
func (d *DefaultRule) Name() string { return d.Engine + "-default" }

// Tree renders the default rule as the (trivial) decision tree of
// Figure 10: one split on data size.
func (d *DefaultRule) Tree() *dtree.Tree {
	return &dtree.Tree{
		Feature:   0,
		Threshold: d.ThresholdGB,
		Gini:      0.5,
		Samples:   2,
		Value:     []int{1, 1},
		Class:     classOf(plan.BHJ),
		Left: &dtree.Tree{
			Gini: 0, Samples: 1,
			Value: leafValue(plan.BHJ), Class: classOf(plan.BHJ),
		},
		Right: &dtree.Tree{
			Gini: 0, Samples: 1,
			Value: leafValue(plan.SMJ), Class: classOf(plan.SMJ),
		},
	}
}

func classOf(a plan.JoinAlgo) int {
	if a == plan.BHJ {
		return 1
	}
	return 0
}

func algoOf(class int) plan.JoinAlgo {
	if class == 1 {
		return plan.BHJ
	}
	return plan.SMJ
}

func leafValue(a plan.JoinAlgo) []int {
	v := make([]int, 2)
	v[classOf(a)] = 1
	return v
}

// TreeRule is rule-based RAQO: a decision tree over data size AND
// resources (Figure 11), traversed "using the current cluster conditions
// ... and the resources available for the query; the leaf of the tree
// gives the best query plan for those resources".
type TreeRule struct {
	Tree      *dtree.Tree
	RuleName  string
	TrainAcc  float64
	NumLabels int
}

// Choose implements Rule.
func (t *TreeRule) Choose(in RuleInput) plan.JoinAlgo {
	return algoOf(t.Tree.Predict(featuresOf(in)))
}

// Name implements Rule.
func (t *TreeRule) Name() string { return t.RuleName }

// Render returns the scikit-style rendering of the tree with RAQO's
// feature and class names.
func (t *TreeRule) Render() string {
	return t.Tree.Render(RuleFeatureNames, RuleClassNames)
}

// The training sweep mirrors the Figure 9 sweep: smaller relations from
// 50 MB to 8 GB against the 77 GB fact side, container sizes 1-10 GB,
// 5-100 concurrent containers. Trees are bounded at depth 7, the paper's
// longest RAQO-tree path (Spark's).
const (
	trainLargerGB = 77
	trainMaxDepth = 7
)

var (
	trainDataGB      = []float64{0.05, 0.1, 0.2, 0.4, 0.77, 1.2, 1.7, 2.3, 3.0, 3.8, 4.7, 5.7, 6.8, 8.0}
	trainContainerGB = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	trainContainers  = []int{5, 10, 20, 30, 40, 60, 80, 100}
)

// TrainTreeRule labels the training sweep's (data, resources) points with
// the faster join implementation on the execution simulator — the
// switch-point data of Figure 9 — and fits a CART tree on it, producing the
// engine's RAQO decision tree (Figure 11). It fails on an invalid engine.
func TrainTreeRule(engine execsim.Params) (*TreeRule, error) {
	if err := engine.Validate(); err != nil {
		return nil, err
	}
	var samples []dtree.Sample
	for _, ss := range trainDataGB {
		for _, cs := range trainContainerGB {
			for _, nc := range trainContainers {
				r := plan.Resources{Containers: nc, ContainerGB: cs}
				algo, _, err := engine.BestJoin(ss, trainLargerGB, r)
				if err != nil {
					return nil, err
				}
				samples = append(samples, dtree.Sample{
					Features: featuresOf(RuleInput{DataGB: ss, ContainerGB: cs, Containers: nc}),
					Label:    classOf(algo),
				})
			}
		}
	}
	tree, err := dtree.Train(samples, 2, trainMaxDepth)
	if err != nil {
		return nil, err
	}
	return &TreeRule{
		Tree:      tree,
		RuleName:  engine.Name + "-raqo-tree",
		TrainAcc:  dtree.Accuracy(tree, samples),
		NumLabels: len(samples),
	}, nil
}

// ApplyRule rewrites a plan's join implementations per the rule, keeping
// the join order: "we still pick the join operator implementations for
// each join operator in the query DAG independently, however, we use the
// RAQO decision tree instead". The given resources are what each operator
// would run with (user- or RM-provided).
func ApplyRule(s *catalog.Schema, root *plan.Node, rule Rule, r plan.Resources) (*plan.Node, error) {
	if root == nil {
		return nil, fmt.Errorf("core: nil plan")
	}
	if root.IsScan() {
		return root, nil
	}
	left, err := ApplyRule(s, root.Left, rule, r)
	if err != nil {
		return nil, err
	}
	right, err := ApplyRule(s, root.Right, rule, r)
	if err != nil {
		return nil, err
	}
	smaller := math.Min(left.OutputGB(), right.OutputGB())
	algo := rule.Choose(RuleInput{DataGB: smaller, ContainerGB: r.ContainerGB, Containers: r.Containers})
	out, err := plan.NewJoin(s, algo, left, right)
	if err != nil {
		return nil, err
	}
	out.Res = r
	return out, nil
}
