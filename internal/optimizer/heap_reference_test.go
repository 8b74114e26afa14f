package optimizer

import (
	"fmt"
	"math/rand"

	"raqo/internal/catalog"
	"raqo/internal/plan"
)

// This file keeps the random-tree and mutation kernels as they were before
// they built into TreeScratch's arena: every scan, join and rebuilt
// ancestor a node of its own on the heap, through plan.NewScan and
// plan.NewJoin. They are the oracles of the arena kernels — the external
// tests reach them as HeapScratch — and otherwise the former code
// unchanged: the component matrix and its helpers are shared.

// HeapScratch is the former TreeScratch.
type HeapScratch struct {
	comps []*plan.Node
	adj   []uint64 // comps' join graph, as AppendJoinGraph lays it out
	joins []*plan.Node

	leavesOf *plan.Query
	leavesAt *catalog.Index
	leaves   []*plan.Node
	leafAdj  []uint64
}

// RandomTree is the former TreeScratch.RandomTree.
func (ts *HeapScratch) RandomTree(rng *rand.Rand, q *plan.Query) (*plan.Node, error) {
	if g := q.Schema.Index(); ts.leavesOf != q || ts.leavesAt != g {
		ts.leavesOf, ts.leavesAt, ts.leaves = nil, nil, ts.leaves[:0]
		for _, r := range q.Rels {
			leaf, err := plan.NewScan(q.Schema, r)
			if err != nil {
				return nil, err
			}
			ts.leaves = append(ts.leaves, leaf)
		}
		ts.leafAdj = AppendJoinGraph(ts.leafAdj[:0], ts.leaves)
		ts.leavesOf, ts.leavesAt = q, g
	}
	comps := append(ts.comps[:0], ts.leaves...)
	adj := append(ts.adj[:0], ts.leafAdj...)
	ts.adj = adj
	w := (len(comps) + 63) / 64
	for len(comps) > 1 {
		m := len(comps)
		total := 0
		for i := range m {
			total += pairsAbove(adj[i*w:(i+1)*w], i)
		}
		if total == 0 {
			ts.comps = comps[:0]
			return nil, fmt.Errorf("optimizer: query relations not connected")
		}
		p0, p1 := nthPair(adj, w, rng.Intn(total))
		algo := plan.Algos[rng.Intn(len(plan.Algos))]
		joined, err := plan.NewJoin(q.Schema, algo, comps[p0], comps[p1])
		if err != nil {
			ts.comps = comps[:0]
			return nil, err
		}
		// Replace p0, move the last component into p1.
		comps[p0] = joined
		comps[p1] = comps[m-1]
		comps = comps[:m-1]
		mergeRows(adj, w, m, p0, p1)
	}
	root := comps[0]
	// Keep the grown buffer but drop the node reference.
	comps[0] = nil
	ts.comps = comps[:0]
	return root, nil
}

// Mutate is the former TreeScratch.Mutate.
func (ts *HeapScratch) Mutate(rng *rand.Rand, s *catalog.Schema, root *plan.Node) (*plan.Node, bool) {
	joins := root.AppendJoins(ts.joins[:0])
	ts.joins = joins
	if len(joins) == 0 {
		return nil, false
	}
	target := joins[rng.Intn(len(joins))]
	m := Mutations[rng.Intn(len(Mutations))]
	out, err := heapRebuild(s, root, target, m)
	if err != nil || out == nil {
		return nil, false
	}
	return out, true
}

// heapRebuild is the former rebuild.
func heapRebuild(s *catalog.Schema, n, target *plan.Node, m Mutation) (*plan.Node, error) {
	if n == target {
		return heapTransform(s, n, m)
	}
	if n.IsScan() {
		return n, nil
	}
	left, err := heapRebuild(s, n.Left, target, m)
	if err != nil || left == nil {
		return left, err
	}
	right, err := heapRebuild(s, n.Right, target, m)
	if err != nil || right == nil {
		return right, err
	}
	if left == n.Left && right == n.Right {
		return n, nil
	}
	return plan.NewJoin(s, n.Algo, left, right)
}

// heapTransform is the former transform.
func heapTransform(s *catalog.Schema, j *plan.Node, m Mutation) (*plan.Node, error) {
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
