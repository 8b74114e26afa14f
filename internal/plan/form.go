package plan

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"raqo/internal/catalog"
)

// ScheduleMax is the largest leaf count for which a Form keeps its
// connected-subset schedule, and so the largest query the Selinger DP,
// which plans in that schedule over a dense 2^n-slot table, accepts.
// Deduplicating one level of the schedule takes a 2^n-bit map.
const ScheduleMax = 16

// Form is a query's planning form: what the planners read that depends
// on the query and its schema's index alone, derived once instead of on
// every planning call. It holds the scan leaves, one per relation in
// query order, their tables' ranks, the join graph among the leaves, the
// selectivity of each of its edges and, up to ScheduleMax leaves, the
// connected-subset schedule of the Selinger DP.
//
// A Form is immutable. Its leaves are shared by every plan a planner
// builds from it, as mutated trees share untouched subtrees, and by every
// goroutine planning the query; nothing may modify them.
type Form struct {
	s      *catalog.Schema
	g      *catalog.Index
	leaves []Node // leaves[i] scans the query's i-th relation

	// words holds the leaves' relation sets, then graph; ints holds ranks,
	// then selAt. One slab each keeps a published form to few allocations.
	words []uint64
	graph []uint64 // AppendJoinGraph's layout; see Graph
	ints  []int32
	ranks []int32 // ranks[i]: leaves[i]'s table's rank in g

	// sel holds the selectivity of every edge of graph under both of its
	// endpoints: leaf after leaf, each leaf's neighbours in ascending leaf
	// order. Leaf i's run starts at selAt[i].
	selAt []int32
	sel   []float64

	sched []uint32
}

// Form returns the query's planning form at its schema's current index.
//
// Forms are published through an atomic pointer keyed to the index, as
// the schema's Index is: once published, a form serves every later call
// until the schema changes, and racing builds all return the one
// published first. A planner that reads the form once per call passes a
// scratch Form whose storage it reuses: the first planning of a Query is
// built there, so a query planned once costs no storage of its own. Every
// later call, and every call with a nil scratch, returns the published
// form, building it first in storage sized exactly for it.
func (q *Query) Form(scratch *Form) (*Form, error) {
	g := q.Schema.Index()
	if f := q.form.Load(); f != nil && f.g == g {
		return f, nil
	}
	if scratch != nil && !q.planned.Swap(true) {
		if err := scratch.build(q, g); err != nil {
			return nil, err
		}
		return scratch, nil
	}
	f := new(Form)
	if err := f.build(q, g); err != nil {
		return nil, err
	}
	for {
		old := q.form.Load()
		if old != nil && old.g == g {
			return old, nil
		}
		if q.form.CompareAndSwap(old, f) {
			return f, nil
		}
	}
}

// sized returns s resized to n elements, reusing its storage when it is
// large enough; contents are arbitrary.
func sized[E any](s []E, n int) []E { return slices.Grow(s[:0], n)[:n] }

// scheduleScratch is the working memory of a form's schedule: the
// level-deduplication map and the buffer it is generated into before it
// is copied to the form.
type scheduleScratch struct {
	seen  [1 << ScheduleMax / 64]uint64
	masks []uint32
}

var schedulePool = sync.Pool{New: func() any { return new(scheduleScratch) }}

// build derives f for q at g, reusing f's storage: a new Form gets
// storage sized exactly.
func (f *Form) build(q *Query, g *catalog.Index) error {
	n := len(q.Rels)
	gw, w := g.Words(), (n+63)/64
	f.s, f.g = q.Schema, g
	f.leaves = sized(f.leaves, n)
	f.words = sized(f.words, 2*gw*n+n*w)
	sets := f.words[:2*gw*n]
	f.graph = f.words[2*gw*n:]
	f.ints = sized(f.ints, 2*n+1)
	f.ranks, f.selAt = f.ints[:n], f.ints[n:]
	for i, r := range q.Rels {
		rank := g.Rank(r)
		if rank < 0 {
			return fmt.Errorf("plan: unknown table %q", r)
		}
		f.ranks[i] = int32(rank)
		f.leaves[i].initScan(g, rank, sets[2*gw*i:2*gw*(i+1):2*gw*(i+1)])
	}
	clear(f.graph)
	edges := 0
	for i, ri := range f.ranks {
		adj := g.Adj(int(ri))
		for j, rj := range f.ranks {
			if j != i && adj[rj/64]&(1<<(rj%64)) != 0 {
				f.graph[i*w+j/64] |= 1 << (j % 64)
				edges++
			}
		}
	}
	f.sel = sized(f.sel, edges)
	k := 0
	for i := range n {
		f.selAt[i] = int32(k)
		for x, word := range f.graph[i*w : (i+1)*w] {
			for ; word != 0; word &= word - 1 {
				l := x*64 + bits.TrailingZeros64(word)
				f.sel[k], _ = g.Selectivity(int(f.ranks[l]), int(f.ranks[i]))
				k++
			}
		}
	}
	f.selAt[n] = int32(k)

	f.sched = f.sched[:0]
	if n <= ScheduleMax {
		sc := schedulePool.Get().(*scheduleScratch)
		sc.masks = f.appendSchedule(sc.masks[:0], &sc.seen)
		f.sched = append(f.sched, sc.masks...)
		sc.masks = sc.masks[:0] // seen is left zero by appendSchedule
		schedulePool.Put(sc)
	}
	return nil
}

// Schema returns the schema of the query the form was derived from.
func (f *Form) Schema() *catalog.Schema { return f.s }

// Len returns the number of leaves: the query's relation count.
func (f *Form) Len() int { return len(f.leaves) }

// Leaf returns the scan of the query's i-th relation.
func (f *Form) Leaf(i int) *Node { return &f.leaves[i] }

// Rank returns the rank of leaf i's table in the schema's index.
func (f *Form) Rank(i int) int { return int(f.ranks[i]) }

// Graph returns the join graph among the leaves as a bit matrix of
// ⌈Len()/64⌉-word rows, one per leaf: row i has bit j set when
// Joinable(Leaf(i), Leaf(j)). The diagonal is clear. The caller must not
// modify it.
func (f *Form) Graph() []uint64 { return f.graph }

// Cross multiplies the selectivities of the join-graph edges between
// leaf i and the leaves of nbr, a set of leaf i's neighbours as a mask
// over leaf indices, in ascending leaf order: over a query of name-sorted
// relations, CrossSelectivity's fold for the join of nbr's leaves with
// leaf i, whatever else the left side covers. The form must have at most
// 64 leaves, so that a graph row is one word.
func (f *Form) Cross(i int, nbr uint64) float64 {
	row, sel := f.graph[i], f.sel[f.selAt[i]:]
	s := 1.0
	for ; nbr != 0; nbr &= nbr - 1 {
		s *= sel[bits.OnesCount64(row&(nbr&-nbr-1))]
	}
	return s
}

// Schedule returns every connected subset of at least two leaves, as a
// mask over leaf indices, by size and then in ascending mask order. It is
// empty above ScheduleMax leaves, where the form keeps none. The caller
// must not modify it.
func (f *Form) Schedule() []uint32 { return f.sched }

// appendSchedule appends to dst every connected subset of at least two
// leaves, as a mask over leaf indices, by size and then in ascending mask
// order, and returns the extended slice. The subsets of size s+1 are the
// subsets of size s extended by one leaf of their neighbourhood — every
// connected subset has a connected subset one leaf smaller — deduplicated
// and ordered through seen, which must be all zero and is left zero. The
// form must have at most ScheduleMax leaves.
func (f *Form) appendSchedule(dst []uint32, seen *[1 << ScheduleMax / 64]uint64) []uint32 {
	n := len(f.leaves)
	from, to := 0, 0 // dst[from:to] is the last level; empty: the leaves
	for size := 2; size <= n; size++ {
		lo, hi := len(seen), -1
		mark := func(m uint32) {
			var nbr uint64
			for x := m; x != 0; x &= x - 1 {
				nbr |= f.graph[bits.TrailingZeros32(x)]
			}
			for x := uint32(nbr) &^ m; x != 0; x &= x - 1 {
				ext := m | x&-x
				w := int(ext / 64)
				seen[w] |= 1 << (ext % 64)
				lo, hi = min(lo, w), max(hi, w)
			}
		}
		if size == 2 {
			for i := range n {
				mark(1 << uint(i))
			}
		} else {
			for _, m := range dst[from:to] {
				mark(m)
			}
		}
		from = len(dst)
		for w := lo; w <= hi; w++ {
			for x := seen[w]; x != 0; x &= x - 1 {
				dst = append(dst, uint32(w*64+bits.TrailingZeros64(x)))
			}
			seen[w] = 0
		}
		to = len(dst)
		if from == to {
			break // no connected subset of this size, so none larger
		}
	}
	return dst
}
