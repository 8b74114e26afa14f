package plan

import (
	"fmt"

	"raqo/internal/catalog"
)

// This file provides the zero-allocation construction paths the planners'
// hot loops use: an Arena that hands out reusable Node storage in chunks,
// and a JoinScratch that re-initializes one Node in place for
// cost-and-discard candidate evaluation. Both recompute the same
// statistics as NewScan/NewJoin — plans built through them are
// indistinguishable from heap-constructed ones except for lifetime:
// arena nodes are valid only until the next Reset, and anything that
// outlives the arena must be deep-copied out with Clone.

// arenaChunk is the node count of one arena slab. Chunks are fixed-size
// so handed-out *Node pointers never move when the arena grows.
const arenaChunk = 64

// arenaSetChunk is the minimum capacity, in words, of one relation-set
// slab.
const arenaSetChunk = 1024

// Arena allocates plan nodes (and their relation sets) from reusable
// slabs. Reset recycles every outstanding node at once while keeping the
// slabs, so a planner that builds thousands of DP entries per call
// allocates only on its first use. An Arena is not safe for concurrent
// use.
type Arena struct {
	chunks [][]Node // fixed-size slabs; pointers into them are stable
	ci     int      // chunk currently being carved
	used   int      // nodes handed out of chunks[ci]
	sets   []uint64 // current relation-set slab, carved by length
}

// Reset recycles all nodes previously allocated from the arena. Their
// storage is reused by subsequent allocations, so callers must have
// Clone()d any tree that outlives the arena.
func (a *Arena) Reset() {
	a.ci, a.used = 0, 0
	a.sets = a.sets[:0]
}

// alloc carves one zeroed node out of the current slab.
func (a *Arena) alloc() *Node {
	if a.ci < len(a.chunks) && a.used == arenaChunk {
		a.ci++
		a.used = 0
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Node, arenaChunk))
	}
	n := &a.chunks[a.ci][a.used]
	a.used++
	*n = Node{}
	return n
}

// carve returns need words (contents arbitrary) of the current
// relation-set slab. When the slab fills, the arena abandons it for one
// twice the size — sets carved earlier keep the old slab alive for as
// long as they are — so that after a Reset the one slab kept fits a call
// of the same size whole.
func (a *Arena) carve(need int) []uint64 {
	if cap(a.sets)-len(a.sets) < need {
		a.sets = make([]uint64, 0, max(arenaSetChunk, 2*cap(a.sets), need))
	}
	start := len(a.sets)
	a.sets = a.sets[:start+need]
	return a.sets[start : start+need : start+need]
}

// Scan builds a scan leaf in the arena, equivalent to NewScan.
func (a *Arena) Scan(s *catalog.Schema, table string) (*Node, error) {
	g := s.Index()
	rank := g.Rank(table)
	if rank < 0 {
		return nil, fmt.Errorf("plan: unknown table %q", table)
	}
	n := a.alloc()
	n.initScan(g, rank, a.carve(2*g.Words()))
	return n, nil
}

// Join builds a join node in the arena, equivalent to NewJoin but
// returning the bare sentinel errors (ErrOverlap, ErrCrossProduct,
// ErrStaleSchema) on rejected candidates so the planner's skip path stays
// allocation-free.
func (a *Arena) Join(s *catalog.Schema, algo JoinAlgo, left, right *Node) (*Node, error) {
	rows, bytes, err := joinStats(s.Index(), left, right)
	if err != nil {
		return nil, err
	}
	n := a.alloc()
	n.initJoin(algo, left, right, rows, bytes, a.carve(len(left.sets)))
	return n, nil
}

// JoinScratch re-initializes a single join node in place, for hot loops
// that build a candidate, cost it, and either discard it or copy the
// few values worth keeping. The returned node aliases the scratch: it is
// valid only until the next Join call, and must never be linked into a
// tree that outlives it. Not safe for concurrent use.
type JoinScratch struct {
	n    Node
	sets []uint64
}

// Join points the scratch node at a join of left and right, equivalent
// to NewJoin but reusing the scratch's storage. Rejected candidates
// return the bare sentinel errors (ErrOverlap, ErrCrossProduct,
// ErrStaleSchema).
func (sc *JoinScratch) Join(s *catalog.Schema, algo JoinAlgo, left, right *Node) (*Node, error) {
	rows, bytes, err := joinStats(s.Index(), left, right)
	if err != nil {
		return nil, err
	}
	if need := len(left.sets); cap(sc.sets) < need {
		sc.sets = make([]uint64, need)
	} else {
		sc.sets = sc.sets[:need]
	}
	n := &sc.n
	*n = Node{}
	n.initJoin(algo, left, right, rows, bytes, sc.sets)
	return n, nil
}

// Rejoin re-initializes the scratch node as the same join under another
// algorithm: the inputs, and so the statistics and relation sets, are
// those of the last successful Join, while the resource annotation
// starts afresh as it would from Join.
//
//raqo:noalloc
func (sc *JoinScratch) Rejoin(algo JoinAlgo) *Node {
	n := &sc.n
	n.Algo = algo
	n.Res = Resources{}
	return n
}
