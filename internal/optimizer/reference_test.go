package optimizer_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/selinger"
	"raqo/internal/plan"
	"raqo/internal/resource"
)

// This file keeps the enumeration kernels as they were before the join
// graph drove them, as the oracles of the differential tests and of
// FuzzEnumeration: the random tree that re-tests every component pair with
// plan.Joinable on every merge, and the Selinger DP that sweeps every mask
// of every size.

// pairScanRandomTree is RandomTree as a pair-by-pair scan: list the
// joinable component pairs (i < j) in lexicographic order, draw one, draw
// an operator, join, and move the last component into the absorbed one's
// slot.
func pairScanRandomTree(rng *rand.Rand, q *plan.Query) (*plan.Node, error) {
	var comps []*plan.Node
	for _, r := range q.Rels {
		leaf, err := plan.NewScan(q.Schema, r)
		if err != nil {
			return nil, err
		}
		comps = append(comps, leaf)
	}
	for len(comps) > 1 {
		var pairs [][2]int
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				if plan.Joinable(comps[i], comps[j]) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		if len(pairs) == 0 {
			return nil, fmt.Errorf("optimizer: query relations not connected")
		}
		p := pairs[rng.Intn(len(pairs))]
		algo := plan.Algos[rng.Intn(len(plan.Algos))]
		joined, err := plan.NewJoin(q.Schema, algo, comps[p[0]], comps[p[1]])
		if err != nil {
			return nil, err
		}
		comps[p[0]] = joined
		comps[p[1]] = comps[len(comps)-1]
		comps = comps[:len(comps)-1]
	}
	return comps[0], nil
}

// sweepSelinger is the left-deep Selinger DP as a sweep over all 2^n
// masks: each subset size in turn, its masks in ascending order (Gosper's
// hack), every member of a mask tried as the right leaf by building the
// join, and a mask's winner kept under strict improvement — the candidate
// order selinger.Planner must reproduce call for call.
func sweepSelinger(c optimizer.OperatorCoster, q *plan.Query) (*optimizer.Result, error) {
	n := len(q.Rels)
	if n > selinger.MaxRelations {
		return nil, fmt.Errorf("selinger: %d relations exceeds the DP limit of %d; use the randomized planner", n, selinger.MaxRelations)
	}
	type entry struct {
		node *plan.Node
		cost optimizer.OpCost
	}
	table := map[uint32]entry{}
	leaves := make([]*plan.Node, n)
	for i, r := range q.Rels {
		leaf, err := plan.NewScan(q.Schema, r)
		if err != nil {
			return nil, err
		}
		leaves[i] = leaf
		table[1<<uint(i)] = entry{node: leaf}
	}
	considered := 0
	full := uint32(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		for m := uint64(1)<<uint(size) - 1; m <= uint64(full); {
			mask := uint32(m)
			var best entry
			found := false
			for sub := mask; sub != 0; sub &= sub - 1 {
				i := bits.TrailingZeros32(sub)
				rest := mask &^ (1 << uint(i))
				prev, ok := table[rest]
				if !ok {
					continue
				}
				for _, algo := range plan.Algos {
					j, err := plan.NewJoin(q.Schema, algo, prev.node, leaves[i])
					if err != nil {
						break // cross product, whatever the operator
					}
					oc, err := c.CostOperator(j)
					if err != nil {
						continue
					}
					considered++
					if total := prev.cost.Add(oc); !found || total.Seconds < best.cost.Seconds {
						best, found = entry{node: j, cost: total}, true
					}
				}
			}
			if found {
				table[mask] = best
			}
			low := m & -m
			r := m + low
			m = (((r ^ m) >> 2) / low) | r
		}
	}
	e, ok := table[full]
	if !ok {
		return nil, fmt.Errorf("selinger: no feasible plan for %v", q.Rels)
	}
	return &optimizer.Result{Plan: e.node, Cost: e.cost, PlansConsidered: considered}, nil
}

// costCall is what a recording coster notes of one CostOperator call: the
// operator and its cost model input.
type costCall struct {
	algo plan.JoinAlgo
	ss   uint64 // SmallerInputGB bits
}

// recordingCoster notes every call it passes on to inner, in call order.
type recordingCoster struct {
	inner optimizer.OperatorCoster
	mu    sync.Mutex
	calls []costCall
}

func (r *recordingCoster) CostOperator(j *plan.Node) (optimizer.OpCost, error) {
	r.mu.Lock()
	r.calls = append(r.calls, costCall{algo: j.Algo, ss: math.Float64bits(j.SmallerInputGB())})
	r.mu.Unlock()
	return r.inner.CostOperator(j)
}

// nnCoster records calls to the joint coster of the benchmark's cold
// planning: hill climbing behind an empty nearest-neighbour resource-plan
// cache, whose answers depend on the order it was asked in.
func nnCoster() *recordingCoster {
	return &recordingCoster{inner: &core.Coster{
		Models:    cost.PaperModels(),
		Pricing:   cost.DefaultPricing(),
		Resources: &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.01},
		Cond:      cluster.Default(),
	}}
}
