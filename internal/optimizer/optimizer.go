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
	"math/bits"
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

// AnswerKeeper is an optional extension of an OperatorCoster whose answers
// a planner may keep and serve itself. A question is a join algorithm and
// the bits of the smaller input's size. An answer may be kept only if
// CostOperator returned no error and Epoch read the same value before and
// after the call. A kept answer — the cost and the operator's resources —
// may be served while Epoch still reads that value. The planner reports
// the answers it served through Reused before the planning call ends.
type AnswerKeeper interface {
	// Epoch returns the current epoch; ok is false when no answer may be
	// kept during this call.
	Epoch() (epoch uint64, ok bool)
	// Reused counts n answers the planner served itself.
	Reused(n int64)
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

// TreeScratch holds the reusable state of the random-tree and mutation
// paths: the arena every join they build comes from, the component
// worklist and its adjacency matrix, and the join-node list the mutation
// target is drawn from. A zero TreeScratch is ready to use; it grows to
// the working-set size once, and after a Reset it builds again into the
// same storage. The trees it returns live in its arena: they are valid
// until the next Reset, and whatever must outlive that is Clone()d out.
// Their scans are the leaves of the query's planning form, shared by
// every tree drawn from it. Not safe for concurrent use — the
// randomized planner keeps one per restart.
type TreeScratch struct {
	arena plan.Arena
	comps []*plan.Node
	adj   []uint64 // comps' join graph, as plan.Form.Graph lays it out
	joins []*plan.Node
}

// Reset recycles every node the scratch has built.
func (ts *TreeScratch) Reset() { ts.arena.Reset() }

// RandomTree builds a uniformly random bushy join tree for the query
// whose planning form f is: it repeatedly joins two random joinable
// connected components with a random operator implementation. Used to
// seed the randomized planner. The tree's scans are f's leaves, and the
// components' join graph starts as f's.
//
// The joinable component pairs are never listed: the scratch keeps the
// components' join graph as a symmetric bit matrix and a running count of
// its pairs (i < j), draws one index and walks to that pair in the
// lexicographic order a pair-by-pair scan would have listed them — the
// same draws from rng, so the same tree. A merge updates only the rows of
// the merged components' neighbours (mergeRows), and takes from the count
// the pairs it folds away.
func (ts *TreeScratch) RandomTree(rng *rand.Rand, f *plan.Form) (*plan.Node, error) {
	comps := ts.comps[:0]
	for i := range f.Len() {
		comps = append(comps, f.Leaf(i))
	}
	adj := append(ts.adj[:0], f.Graph()...)
	ts.adj = adj
	w := (len(comps) + 63) / 64
	total := 0
	for i := range comps {
		total += pairsAbove(adj[i*w:(i+1)*w], i)
	}
	for len(comps) > 1 {
		m := len(comps)
		if total == 0 {
			ts.comps = comps[:0]
			return nil, fmt.Errorf("optimizer: query relations not connected")
		}
		p0, p1 := nthPair(adj, w, rng.Intn(total))
		algo := plan.Algos[rng.Intn(len(plan.Algos))]
		joined, err := ts.arena.Join(f.Schema(), algo, comps[p0], comps[p1])
		if err != nil {
			ts.comps = comps[:0]
			// The arena returns the bare sentinel; say what NewJoin says.
			return nil, fmt.Errorf("plan: joining %v and %v: %w", comps[p0].Relations(), comps[p1].Relations(), err)
		}
		// Replace p0, move the last component into p1.
		comps[p0] = joined
		comps[p1] = comps[m-1]
		comps = comps[:m-1]
		total -= mergeRows(adj, w, m, p0, p1)
	}
	root := comps[0]
	// Keep the grown buffer but drop the node reference.
	comps[0] = nil
	ts.comps = comps[:0]
	return root, nil
}

// pairsAbove counts the bits of row i above the diagonal.
func pairsAbove(row []uint64, i int) int {
	n := bits.OnesCount64(row[i/64] & (^uint64(0) << (i%64 + 1)))
	for _, x := range row[i/64+1:] {
		n += bits.OnesCount64(x)
	}
	return n
}

// nthPair returns the k-th (from 0) set bit above the diagonal of the
// adjacency matrix, rows first: the k-th joinable pair (i, j), i < j, in
// lexicographic order.
func nthPair(adj []uint64, w, k int) (int, int) {
	for i := 0; ; i++ {
		row := adj[i*w : (i+1)*w]
		if c := pairsAbove(row, i); k >= c {
			k -= c
			continue
		}
		for x := i / 64; ; x++ {
			word := row[x]
			if x == i/64 {
				word &= ^uint64(0) << (i%64 + 1)
			}
			if c := bits.OnesCount64(word); k >= c {
				k -= c
				continue
			}
			for ; k > 0; k-- {
				word &= word - 1
			}
			return i, x*64 + bits.TrailingZeros64(word)
		}
	}
}

// mergeRows updates the m-component adjacency matrix for the join of the
// joinable components p0 and p1 (p0 < p1) into p0 and the move of
// component m-1 into p1, and returns how many joinable pairs the merge
// removed: the pair itself and one of the two pairs with each common
// neighbour. The matrix is symmetric, so column p1 is row p1 and column
// m-1 is row m-1: only those rows' members have a column bit to move,
// while row p0 takes row p1's bits and row m-1 replaces row p1. When p1
// is m-1 itself there is nothing to move: its column bits are already
// gone and its row is cleared.
func mergeRows(adj []uint64, w, m, p0, p1 int) int {
	last := m - 1
	w0, b0 := p0/64, uint64(1)<<(p0%64)
	w1, b1 := p1/64, uint64(1)<<(p1%64)
	wl, bl := last/64, uint64(1)<<(last%64)
	r0, r1, rl := adj[p0*w:(p0+1)*w], adj[p1*w:(p1+1)*w], adj[last*w:(last+1)*w]
	lost := 1
	for x := range r0 {
		lost += bits.OnesCount64(r0[x] & r1[x])
		r0[x] |= r1[x]
	}
	for x, word := range r1 {
		for ; word != 0; word &= word - 1 {
			row := (x*64 + bits.TrailingZeros64(word)) * w
			adj[row+w0] |= b0
			adj[row+w1] &^= b1
		}
	}
	if p1 != last {
		for x, word := range rl {
			for ; word != 0; word &= word - 1 {
				row := (x*64 + bits.TrailingZeros64(word)) * w
				adj[row+wl] &^= bl
				adj[row+w1] |= b1
			}
		}
		copy(r1, rl)
	}
	clear(rl)
	r0[w0] &^= b0
	return lost
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
// tree, whose new nodes come from the scratch's arena. ok is false when
// the chosen mutation is inapplicable at the chosen node (the caller
// simply retries); the input tree is never modified.
func (ts *TreeScratch) Mutate(rng *rand.Rand, s *catalog.Schema, root *plan.Node) (*plan.Node, bool) {
	joins := root.AppendJoins(ts.joins[:0])
	ts.joins = joins
	if len(joins) == 0 {
		return nil, false
	}
	target := joins[rng.Intn(len(joins))]
	m := Mutations[rng.Intn(len(Mutations))]
	out, err := ts.rebuild(s, root, target, m)
	if err != nil || out == nil {
		return nil, false
	}
	return out, true
}

// rebuild copies root, replacing target with its transformed version; nodes
// off the path to target are shared (they are immutable apart from Res,
// which planners reassign anyway).
func (ts *TreeScratch) rebuild(s *catalog.Schema, n, target *plan.Node, m Mutation) (*plan.Node, error) {
	if n == target {
		return ts.transform(s, n, m)
	}
	if n.IsScan() {
		return n, nil
	}
	left, err := ts.rebuild(s, n.Left, target, m)
	if err != nil || left == nil {
		return left, err
	}
	right, err := ts.rebuild(s, n.Right, target, m)
	if err != nil || right == nil {
		return right, err
	}
	if left == n.Left && right == n.Right {
		return n, nil
	}
	return ts.arena.Join(s, n.Algo, left, right)
}

// transform applies the mutation at node j; returns (nil, nil) when
// inapplicable.
func (ts *TreeScratch) transform(s *catalog.Schema, j *plan.Node, m Mutation) (*plan.Node, error) {
	switch m {
	case Exchange:
		return ts.arena.Join(s, j.Algo, j.Right, j.Left)
	case FlipAlgo:
		other := plan.SMJ
		if j.Algo == plan.SMJ {
			other = plan.BHJ
		}
		return ts.arena.Join(s, other, j.Left, j.Right)
	case AssocLeft:
		// (A ⋈ B) ⋈ C  ->  A ⋈ (B ⋈ C)
		if j.Left.IsScan() {
			return nil, nil
		}
		a, b, c := j.Left.Left, j.Left.Right, j.Right
		bc, err := ts.arena.Join(s, j.Left.Algo, b, c)
		if err != nil {
			return nil, nil // B-C not joinable: inapplicable, not an error
		}
		return ts.arena.Join(s, j.Algo, a, bc)
	case AssocRight:
		// A ⋈ (B ⋈ C)  ->  (A ⋈ B) ⋈ C
		if j.Right.IsScan() {
			return nil, nil
		}
		a, b, c := j.Left, j.Right.Left, j.Right.Right
		ab, err := ts.arena.Join(s, j.Right.Algo, a, b)
		if err != nil {
			return nil, nil
		}
		return ts.arena.Join(s, j.Algo, ab, c)
	}
	return nil, fmt.Errorf("optimizer: unknown mutation %d", int(m))
}
