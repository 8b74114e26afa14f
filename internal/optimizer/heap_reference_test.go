package optimizer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/plan"
)

// This file keeps the random-tree and mutation kernels as they were before
// they built into TreeScratch's arena: every scan, join and rebuilt
// ancestor a node of its own on the heap, through plan.NewScan and
// plan.NewJoin. They are the oracles of the arena kernels — the external
// tests reach them as HeapScratch — and otherwise the former code
// unchanged: the component matrix's pair walk is shared, while its merge
// and pair count are the former ones, a pass over every component
// (scanMergeRows, pairCount), which TestMergeRowsMatchesScan holds
// mergeRows to.

// HeapScratch is the former TreeScratch.
type HeapScratch struct {
	comps []*plan.Node
	adj   []uint64 // comps' join graph, as appendJoinGraph lays it out
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
		ts.leafAdj = appendJoinGraph(ts.leafAdj[:0], ts.leaves)
		ts.leavesOf, ts.leavesAt = q, g
	}
	comps := append(ts.comps[:0], ts.leaves...)
	adj := append(ts.adj[:0], ts.leafAdj...)
	ts.adj = adj
	w := (len(comps) + 63) / 64
	for len(comps) > 1 {
		m := len(comps)
		total := pairCount(adj, w, m)
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
		scanMergeRows(adj, w, m, p0, p1)
	}
	root := comps[0]
	// Keep the grown buffer but drop the node reference.
	comps[0] = nil
	ts.comps = comps[:0]
	return root, nil
}

// appendJoinGraph is the former optimizer.AppendJoinGraph: it appends to
// dst the join graph among leaves as a bit matrix of ⌈len(leaves)/64⌉-word
// rows, one per leaf: row i has bit j set when plan.Joinable(leaves[i],
// leaves[j]). The diagonal is clear.
func appendJoinGraph(dst []uint64, leaves []*plan.Node) []uint64 {
	words := (len(leaves) + 63) / 64
	for i, a := range leaves {
		row := len(dst)
		for range words {
			dst = append(dst, 0)
		}
		for j, b := range leaves {
			if i != j && plan.Joinable(a, b) {
				dst[row+j/64] |= 1 << (j % 64)
			}
		}
	}
	return dst
}

// pairCount is the former per-step recount: the pairs above the diagonal
// of the m-component matrix.
func pairCount(adj []uint64, w, m int) int {
	total := 0
	for i := range m {
		total += pairsAbove(adj[i*w:(i+1)*w], i)
	}
	return total
}

// scanMergeRows is the former mergeRows: p1's row and column are ORed into
// p0's, then m-1's replace p1's and are cleared, the columns by a pass
// over all m rows.
func scanMergeRows(adj []uint64, w, m, p0, p1 int) {
	last := m - 1
	r0, r1 := adj[p0*w:(p0+1)*w], adj[p1*w:(p1+1)*w]
	for x := range r0 {
		r0[x] |= r1[x]
	}
	for i := range m {
		row := adj[i*w : (i+1)*w]
		if row[p1/64]&(1<<(p1%64)) != 0 {
			row[p0/64] |= 1 << (p0 % 64)
		}
		row[p1/64] &^= 1 << (p1 % 64)
		if row[last/64]&(1<<(last%64)) != 0 {
			row[last/64] &^= 1 << (last % 64)
			row[p1/64] |= 1 << (p1 % 64)
		}
	}
	copy(r1, adj[last*w:(last+1)*w])
	clear(adj[last*w : (last+1)*w])
	r0[p0/64] &^= 1 << (p0 % 64)
}

// TestMergeRowsMatchesScan holds the neighbour-only merge to the pass over
// every row it replaced: over random symmetric matrices of 2 to 130
// components — one to three row words — at several densities, the merge
// of every joinable pair p0 < p1, p1 = m-1 included, leaves the matrix the
// scan leaves, and the running pair count, less what mergeRows reports,
// equals the recount.
func TestMergeRowsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(244))
	sizes := []int{2, 3, 4, 5, 8, 17, 63, 64, 65, 66, 100, 127, 128, 129, 130}
	for _, m := range sizes {
		w := (m + 63) / 64
		for _, density := range []float64{0.05, 0.3, 0.9} {
			base := make([]uint64, m*w)
			for i := range m {
				for j := i + 1; j < m; j++ {
					if rng.Float64() < density {
						base[i*w+j/64] |= 1 << (j % 64)
						base[j*w+i/64] |= 1 << (i % 64)
					}
				}
			}
			got, want := make([]uint64, m*w), make([]uint64, m*w)
			for p0 := 0; p0 < m; p0++ {
				for p1 := p0 + 1; p1 < m; p1++ {
					copy(got, base)
					// Only a joinable pair is ever merged.
					got[p0*w+p1/64] |= 1 << (p1 % 64)
					got[p1*w+p0/64] |= 1 << (p0 % 64)
					copy(want, got)
					total := pairCount(got, w, m)
					total -= mergeRows(got, w, m, p0, p1)
					scanMergeRows(want, w, m, p0, p1)
					if !slices.Equal(got, want) {
						t.Fatalf("m=%d density %v: merging %d and %d: matrix differs from the scan's", m, density, p0, p1)
					}
					if recount := pairCount(want, w, m-1); total != recount {
						t.Fatalf("m=%d density %v: merging %d and %d: running count %d, recount %d", m, density, p0, p1, total, recount)
					}
				}
			}
		}
	}
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
