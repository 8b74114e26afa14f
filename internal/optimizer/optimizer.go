// Package optimizer defines the interfaces shared by the query planners and
// the tree-manipulation utilities (random plan generation and the
// associativity/exchange mutations of Steinbrunn et al.) used by the
// randomized planner.
//
// The key abstraction is OperatorCoster: the per-operator costing hook that
// both planners call while enumerating candidate sub-plans. This is exactly
// the paper's integration point — "we extended the getPlanCost method of our
// cost model to first perform the resource planning ... and then return the
// sub-plan cost" — so plugging resource planning into either planner means
// swapping the coster, not the planner.
package optimizer

import (
	"fmt"
	"math/rand"

	"raqo/internal/catalog"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// OpCost is the multi-objective cost of one join operator at the resources
// the coster chose for it.
type OpCost struct {
	Seconds float64
	Money   units.Dollars
}

// Add accumulates another operator's cost.
func (c OpCost) Add(o OpCost) OpCost {
	return OpCost{Seconds: c.Seconds + o.Seconds, Money: c.Money + o.Money}
}

// OperatorCoster prices a single join operator. Implementations may
// annotate the operator's Res field with the resource configuration they
// chose (the RAQO coster does; the plain QO coster uses a fixed
// configuration).
type OperatorCoster interface {
	CostOperator(j *plan.Node) (OpCost, error)
}

// PlanCost prices a whole plan by summing its join operators, invoking the
// coster bottom-up (so resource annotations are in place before parents are
// priced). The walk is a direct recursion threading one accumulator in the
// same post-order Joins reports — the identical floating-point summation
// order as the historical Joins()-slice fold, without the slice allocation.
func PlanCost(c OperatorCoster, root *plan.Node) (OpCost, error) {
	return planCost(c, root, OpCost{})
}

func planCost(c OperatorCoster, n *plan.Node, acc OpCost) (OpCost, error) {
	if n == nil || n.IsScan() {
		return acc, nil
	}
	acc, err := planCost(c, n.Left, acc)
	if err != nil {
		return OpCost{}, err
	}
	acc, err = planCost(c, n.Right, acc)
	if err != nil {
		return OpCost{}, err
	}
	oc, err := c.CostOperator(n)
	if err != nil {
		return OpCost{}, err
	}
	return acc.Add(oc), nil
}

// Result is the outcome of query planning.
type Result struct {
	Plan *plan.Node
	Cost OpCost
	// PlansConsidered counts the candidate (sub-)plans the planner priced.
	PlansConsidered int
}

// Planner is a query planner: given a logical query, produce a physical
// plan with per-operator resource annotations (left to the coster).
type Planner interface {
	Plan(q *plan.Query) (*Result, error)
}

// TreeScratch holds the reusable buffers of the random-tree and mutation
// paths: the component worklist, the joinable-pair list and the join-node
// list the mutation target is drawn from. A zero TreeScratch is ready to
// use; it grows to the working-set size once and is then allocation-free
// across calls. Not safe for concurrent use — the randomized planner keeps
// one per restart worker.
type TreeScratch struct {
	comps []*plan.Node
	pairs [][2]int
	joins []*plan.Node

	// leaves are the scan leaves of leavesOf, the query RandomTree last
	// drew a tree for. Scans are immutable, so all the trees drawn for one
	// query share theirs, as mutated trees share untouched subtrees.
	leavesOf *plan.Query
	leaves   []*plan.Node
}

// RandomTree builds a uniformly random bushy join tree for the query: it
// repeatedly joins two random joinable connected components with a random
// operator implementation. Used to seed the randomized planner.
func RandomTree(rng *rand.Rand, q *plan.Query) (*plan.Node, error) {
	var ts TreeScratch
	return ts.RandomTree(rng, q)
}

// RandomTree is the buffer-reusing form of the package-level RandomTree.
func (ts *TreeScratch) RandomTree(rng *rand.Rand, q *plan.Query) (*plan.Node, error) {
	if ts.leavesOf != q {
		ts.leavesOf, ts.leaves = nil, ts.leaves[:0]
		for _, r := range q.Rels {
			leaf, err := plan.NewScan(q.Schema, r)
			if err != nil {
				return nil, err
			}
			ts.leaves = append(ts.leaves, leaf)
		}
		ts.leavesOf = q
	}
	comps := append(ts.comps[:0], ts.leaves...)
	for len(comps) > 1 {
		// Collect joinable component pairs.
		pairs := ts.pairs[:0]
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				if plan.Joinable(comps[i], comps[j]) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		ts.pairs = pairs
		if len(pairs) == 0 {
			ts.comps = comps[:0]
			return nil, fmt.Errorf("optimizer: query relations not connected")
		}
		p := pairs[rng.Intn(len(pairs))]
		algo := plan.Algos[rng.Intn(len(plan.Algos))]
		joined, err := plan.NewJoin(q.Schema, algo, comps[p[0]], comps[p[1]])
		if err != nil {
			ts.comps = comps[:0]
			return nil, err
		}
		// Replace a, remove b.
		comps[p[0]] = joined
		comps[p[1]] = comps[len(comps)-1]
		comps = comps[:len(comps)-1]
	}
	root := comps[0]
	// Keep the grown buffer but drop the node reference.
	comps[0] = nil
	ts.comps = comps[:0]
	return root, nil
}

// Mutation is a local plan transformation used by randomized search.
type Mutation int

// Mutations: the exchange and associativity rules of Steinbrunn et al.,
// plus flipping the operator implementation (needed because RAQO's search
// space includes physical operator choice).
const (
	Exchange Mutation = iota // commute the children of a join
	AssocLeft
	AssocRight
	FlipAlgo
)

// Mutations lists all mutation kinds.
var Mutations = []Mutation{Exchange, AssocLeft, AssocRight, FlipAlgo}

// Mutate applies a random mutation at a random join node, returning the new
// tree. ok is false when the chosen mutation is inapplicable at the chosen
// node (the caller simply retries); the input tree is never modified.
func Mutate(rng *rand.Rand, s *catalog.Schema, root *plan.Node) (*plan.Node, bool) {
	var ts TreeScratch
	return ts.Mutate(rng, s, root)
}

// Mutate is the buffer-reusing form of the package-level Mutate.
func (ts *TreeScratch) Mutate(rng *rand.Rand, s *catalog.Schema, root *plan.Node) (*plan.Node, bool) {
	joins := root.AppendJoins(ts.joins[:0])
	ts.joins = joins
	if len(joins) == 0 {
		return nil, false
	}
	target := joins[rng.Intn(len(joins))]
	m := Mutations[rng.Intn(len(Mutations))]
	out, err := rebuild(s, root, target, m)
	if err != nil || out == nil {
		return nil, false
	}
	return out, true
}

// rebuild copies root, replacing target with its transformed version; nodes
// off the path to target are shared (they are immutable apart from Res,
// which planners reassign anyway).
func rebuild(s *catalog.Schema, n, target *plan.Node, m Mutation) (*plan.Node, error) {
	if n == target {
		return transform(s, n, m)
	}
	if n.IsScan() {
		return n, nil
	}
	left, err := rebuild(s, n.Left, target, m)
	if err != nil || left == nil {
		return left, err
	}
	right, err := rebuild(s, n.Right, target, m)
	if err != nil || right == nil {
		return right, err
	}
	if left == n.Left && right == n.Right {
		return n, nil
	}
	return plan.NewJoin(s, n.Algo, left, right)
}

// transform applies the mutation at node j; returns (nil, nil) when
// inapplicable.
func transform(s *catalog.Schema, j *plan.Node, m Mutation) (*plan.Node, error) {
	switch m {
	case Exchange:
		return plan.NewJoin(s, j.Algo, j.Right, j.Left)
	case FlipAlgo:
		other := plan.SMJ
		if j.Algo == plan.SMJ {
			other = plan.BHJ
		}
		return plan.NewJoin(s, other, j.Left, j.Right)
	case AssocLeft:
		// (A ⋈ B) ⋈ C  ->  A ⋈ (B ⋈ C)
		if j.Left.IsScan() {
			return nil, nil
		}
		a, b, c := j.Left.Left, j.Left.Right, j.Right
		bc, err := plan.NewJoin(s, j.Left.Algo, b, c)
		if err != nil {
			return nil, nil // B-C not joinable: inapplicable, not an error
		}
		return plan.NewJoin(s, j.Algo, a, bc)
	case AssocRight:
		// A ⋈ (B ⋈ C)  ->  (A ⋈ B) ⋈ C
		if j.Right.IsScan() {
			return nil, nil
		}
		a, b, c := j.Left, j.Right.Left, j.Right.Right
		ab, err := plan.NewJoin(s, j.Right.Algo, a, b)
		if err != nil {
			return nil, nil
		}
		return plan.NewJoin(s, j.Algo, ab, c)
	}
	return nil, fmt.Errorf("optimizer: unknown mutation %d", int(m))
}
