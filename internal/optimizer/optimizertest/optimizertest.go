// Package optimizertest provides simple OperatorCoster implementations for
// exercising the query planners in tests without pulling in the full RAQO
// resource-planning stack, and Optimum, the exhaustive join-tree oracle
// the planners are held to.
package optimizertest

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"raqo/internal/optimizer"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// SizeCoster prices a join by its input and output sizes (a C_out-style
// cost), annotating every operator with a fixed resource configuration. It
// is deterministic, safe for concurrent use, and makes join order matter,
// which is what planner tests need.
type SizeCoster struct {
	Res   plan.Resources
	Calls atomic.Int64
}

// CostOperator implements optimizer.OperatorCoster.
func (c *SizeCoster) CostOperator(j *plan.Node) (optimizer.OpCost, error) {
	c.Calls.Add(1)
	j.Res = c.Res
	secs := j.SmallerInputGB() + j.LargerInputGB() + j.OutputGB()
	return optimizer.OpCost{
		Seconds: secs,
		Money:   units.Dollars(secs * c.Res.TotalGB() * 1e-5),
	}, nil
}

// ErrCost is returned by FailingCoster.
var ErrCost = errors.New("optimizertest: costing failed")

// FailingCoster always errors, for planner error paths.
type FailingCoster struct{}

// CostOperator implements optimizer.OperatorCoster.
func (FailingCoster) CostOperator(*plan.Node) (optimizer.OpCost, error) {
	return optimizer.OpCost{}, ErrCost
}

// MaxOptimumRelations bounds Optimum's queries. A 5-relation clique has
// 26 880 bushy trees over all five; a sixth relation makes that 967 680.
const MaxOptimumRelations = 5

// Optimum enumerates every connected join tree over q's relations — no
// cross products, every algorithm at every join — and returns the
// cheapest, and the cheapest left-deep one (every join's right input a
// scan), each with PlansConsidered the number of such trees over all of
// q's relations. It builds each subset's trees once, from every split of
// the subset into two joinable subsets and every pair of their trees, so
// each join node is priced once, children first; a tree whose costing
// errors is skipped, as the planners skip it. Over a core.Coster whose
// Resources is resource.BruteForce it is the exhaustive joint (plan,
// resources) optimum. A query the join graph does not connect, or one
// where every candidate of either shape fails to cost, is an error.
func Optimum(c optimizer.OperatorCoster, q *plan.Query) (bushy, leftDeep *optimizer.Result, err error) {
	n := len(q.Rels)
	if n == 0 || n > MaxOptimumRelations {
		return nil, nil, fmt.Errorf("optimizertest: Optimum takes 1 to %d relations, got %d", MaxOptimumRelations, n)
	}
	type tree struct {
		node     *plan.Node
		cost     optimizer.OpCost
		leftDeep bool
	}
	f, err := q.Form(nil)
	if err != nil {
		return nil, nil, err
	}
	trees := make([][]tree, 1<<n) // by subset of q.Rels, a bit per relation
	for i := range n {
		trees[1<<i] = []tree{{node: f.Leaf(i), leftDeep: true}}
	}
	// A subset's splits are smaller subsets, so ascending order has them built.
	for set := 3; set < len(trees); set++ {
		if bits.OnesCount(uint(set)) < 2 {
			continue
		}
		for left := (set - 1) & set; left > 0; left = (left - 1) & set {
			ls, rs := trees[left], trees[set&^left]
			if len(ls) == 0 || len(rs) == 0 || !plan.Joinable(ls[0].node, rs[0].node) {
				continue
			}
			for _, l := range ls {
				for _, r := range rs {
					for _, algo := range plan.Algos {
						j, err := plan.NewJoin(q.Schema, algo, l.node, r.node)
						if err != nil {
							return nil, nil, err
						}
						oc, err := c.CostOperator(j)
						if err != nil {
							continue
						}
						trees[set] = append(trees[set], tree{j, l.cost.Add(r.cost).Add(oc), l.leftDeep && r.node.IsScan()})
					}
				}
			}
		}
	}
	bushy, leftDeep = &optimizer.Result{}, &optimizer.Result{}
	keep := func(best *optimizer.Result, t tree) {
		best.PlansConsidered++
		if best.Plan == nil || t.cost.Seconds < best.Cost.Seconds {
			best.Plan, best.Cost = t.node, t.cost
		}
	}
	for _, t := range trees[len(trees)-1] {
		keep(bushy, t)
		if t.leftDeep {
			keep(leftDeep, t)
		}
	}
	if leftDeep.Plan == nil {
		return nil, nil, fmt.Errorf("optimizertest: no connected, costable tree over %v", q.Rels)
	}
	return bushy, leftDeep, nil
}
