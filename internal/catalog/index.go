package catalog

import (
	"math/bits"
	"sort"

	"raqo/internal/units"
)

// Index is the dense integer form of a schema's join graph: the form the
// planners' hot loops run on, where the Schema's string-keyed maps serve
// everything else.
//
// A table's rank is its position in the schema's sorted table names, and
// a relation set is a bitset over ranks, Words() uint64 words long (sized
// by the schema's table count, whatever it is). Per rank the index holds
// the table's statistics and an adjacency row — the relation set of its
// join-graph neighbours; per edge, its selectivity.
//
// An Index is an immutable snapshot. Any mutation of the schema drops the
// current one and the next Index call derives a fresh one, so index
// identity doubles as a generation stamp: plan nodes remember the Index
// they were built against, and a node built before a later AddTable
// shifted the ranks is recognisably stale.
type Index struct {
	names []string      // sorted; rank r is names[r]
	rows  []float64     // per rank: cardinality
	sizes []units.Bytes // per rank: on-disk size
	words int           // uint64 words per relation set
	adj   []uint64      // rank r's adjacency row is adj[r*words : (r+1)*words]

	// sel holds every edge's selectivity under both of its endpoints: rank
	// after rank, each rank's neighbours in ascending rank. selAt[r*words+w]
	// is the position in sel of rank r's first neighbour in word w, so the
	// edge to a neighbour is found from its word and the count of adjacency
	// bits below it.
	selAt []int32
	sel   []float64
}

// Index returns the schema's join-graph index, deriving it on first use
// after a mutation. Safe for concurrent use by readers of a schema that
// is no longer being mutated: racing first calls each derive the index
// and all return the one that was published first.
func (s *Schema) Index() *Index {
	if g := s.idx.Load(); g != nil {
		return g
	}
	s.idx.CompareAndSwap(nil, s.buildIndex())
	return s.idx.Load()
}

func (s *Schema) buildIndex() *Index {
	n := len(s.names)
	w := (n + 63) / 64
	g := &Index{
		names: append([]string(nil), s.names...),
		rows:  make([]float64, n),
		sizes: make([]units.Bytes, n),
		words: w,
		adj:   make([]uint64, n*w),
		selAt: make([]int32, n*w),
	}
	for r, a := range g.names {
		t := s.tables[a]
		g.rows[r], g.sizes[r] = float64(t.Rows), t.Size()
		edges := s.edges[a]
		for c, b := range g.names {
			if c%64 == 0 {
				g.selAt[r*w+c/64] = int32(len(g.sel))
			}
			if sel, ok := edges[b]; ok {
				g.adj[r*w+c/64] |= 1 << (c % 64)
				g.sel = append(g.sel, sel)
			}
		}
	}
	return g
}

// Words returns the length in uint64 words of a relation set.
func (g *Index) Words() int { return g.words }

// Rank returns the rank of the named table, or -1.
func (g *Index) Rank(name string) int {
	i := sort.SearchStrings(g.names, name)
	if i < len(g.names) && g.names[i] == name {
		return i
	}
	return -1
}

// Name returns the name of the table at a rank.
func (g *Index) Name(rank int) string { return g.names[rank] }

// Stats returns the cardinality and on-disk size of the table at a rank.
func (g *Index) Stats(rank int) (rows float64, size units.Bytes) { return g.rows[rank], g.sizes[rank] }

// Adj returns the adjacency row of the table at a rank: the relation set
// of its join-graph neighbours. The caller must not modify it.
func (g *Index) Adj(rank int) []uint64 { return g.adj[rank*g.words : (rank+1)*g.words] }

// Selectivity returns the selectivity of the join-graph edge between the
// tables at ranks a and b, as CrossSelectivity multiplies it, and whether
// there is one.
func (g *Index) Selectivity(a, b int) (float64, bool) {
	row := a*g.words + b/64
	adj, bit := g.adj[row], uint64(1)<<(b%64)
	if adj&bit == 0 {
		return 0, false
	}
	return g.sel[int(g.selAt[row])+bits.OnesCount64(adj&(bit-1))], true
}

// CrossSelectivity multiplies the selectivities of the join-graph edges
// between a relation of left and a relation of right, and counts them.
// rightAdj must be the union of the adjacency rows of right's members; it
// lets the walk skip every member of left that has no edge into right.
//
// The fold order is part of the contract, because floating-point
// multiplication does not associate: left's members in ascending rank and,
// under each, its neighbours in right in ascending rank — the order of a
// nested loop over the two sides' sorted relation names.
func (g *Index) CrossSelectivity(left, right, rightAdj []uint64) (sel float64, crossing int) {
	sel = 1.0
	for lw, l := range left {
		for l &= rightAdj[lw]; l != 0; l &= l - 1 {
			row := (lw*64 + bits.TrailingZeros64(l)) * g.words
			for w, r := range right {
				a := g.adj[row+w]
				for m := a & r; m != 0; m &= m - 1 {
					below := m&-m - 1
					sel *= g.sel[int(g.selAt[row+w])+bits.OnesCount64(a&below)]
					crossing++
				}
			}
		}
	}
	return sel, crossing
}

// connected reports whether the non-empty relation set want induces a
// connected subgraph: it grows a reached set from want's lowest member
// along adjacency rows, a whole frontier per round.
func (g *Index) connected(want []uint64) bool {
	seen := make([]uint64, g.words)
	frontier := make([]uint64, g.words)
	next := make([]uint64, g.words)
	for w, x := range want {
		if x != 0 {
			frontier[w] = x & -x
			seen[w] = frontier[w]
			break
		}
	}
	for grew := true; grew; {
		grew = false
		clear(next)
		for fw, f := range frontier {
			for ; f != 0; f &= f - 1 {
				for w, a := range g.Adj(fw*64 + bits.TrailingZeros64(f)) {
					next[w] |= a
				}
			}
		}
		for w := range next {
			next[w] &= want[w] &^ seen[w]
			seen[w] |= next[w]
			grew = grew || next[w] != 0
		}
		frontier, next = next, frontier
	}
	for w := range want {
		if seen[w] != want[w] {
			return false
		}
	}
	return true
}
