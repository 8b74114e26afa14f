package plan

import "raqo/internal/catalog"

// This file provides the zero-allocation construction paths the planners'
// hot loops use: an Arena that hands out reusable Node storage in chunks,
// and a JoinScratch that re-initializes one Node in place for
// cost-and-discard candidate evaluation. The arena recomputes the same
// statistics as NewJoin — joins built in it are indistinguishable from
// heap-constructed ones except for lifetime: arena nodes are valid only
// until the next Reset, and anything that outlives the arena must be
// deep-copied out with Clone. The scans below them are a query's planning
// form's (form.go). The scratch takes the statistics its caller derived.

// arenaChunk is the node count of one arena slab. Chunks are fixed-size
// so handed-out *Node pointers never move when the arena grows.
const arenaChunk = 64

// arenaSetChunk is the minimum capacity, in words, of one relation-set
// slab.
const arenaSetChunk = 1024

// Arena allocates plan nodes (and their relation sets) from reusable
// slabs. Reset recycles every outstanding node at once while keeping the
// slabs, so a planner that builds thousands of nodes per call — random
// trees and their mutations — allocates only on its first use. An Arena
// is not safe for concurrent use.
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

// Join builds a join node in the arena, equivalent to NewJoin but
// returning the bare sentinel errors (ErrOverlap, ErrCrossProduct,
// ErrStaleSchema) on rejected candidates so the planner's skip path stays
// allocation-free.
func (a *Arena) Join(s *catalog.Schema, algo JoinAlgo, left, right *Node) (*Node, error) {
	out, err := joinStats(s.Index(), left, right)
	if err != nil {
		return nil, err
	}
	n := a.alloc()
	n.initJoin(algo, left, right, out, a.carve(len(left.sets)))
	return n, nil
}

// JoinScratch re-initializes one join node in place for a dynamic
// program that keeps its sub-plans as values, not nodes: the candidate it
// hands the coster joins a stand-in for the left sub-plan — a node holding
// the sub-plan's estimate and relation sets, with no inputs, operator or
// resources of its own — to a right input node. Through Algo, Res, Rows,
// Bytes, OutputGB, SmallerInputGB, LargerInputGB and Relations, and its
// inputs' Rows, Bytes and Relations, the candidate reads as NewJoin's
// join of the materialized sub-plan with right; nothing lies below the
// stand-in, so the candidate is for pricing, not for walking (Signature,
// String, Clone). It is valid only until the next Join, and must never be
// linked into a tree that outlives it. Not safe for concurrent use.
type JoinScratch struct {
	n, left Node
}

// Join points the scratch node at the join under algo of a sub-plan, given
// by its estimate and relation sets, with right. The caller derives the
// join's estimate out (JoinEstimate) and relation sets (AppendJoinSets);
// the scratch keeps the set slices, not copies. Both sides must have been
// built against the schema's current index, and the join must be one
// NewJoin accepts: Join checks nothing.
func (sc *JoinScratch) Join(algo JoinAlgo, left Estimate, leftSets []uint64, right *Node, out Estimate, sets []uint64) *Node {
	// Field by field: the fields not named stay zero from the start, while
	// two whole-node copies per candidate took a tenth of the DP's time.
	l, n := &sc.left, &sc.n
	l.rows, l.bytes, l.g, l.sets = left.rows, left.bytes, right.g, leftSets
	n.Algo, n.Left, n.Right, n.Res = algo, l, right, Resources{}
	n.rows, n.bytes, n.g, n.sets = out.rows, out.bytes, right.g, sets
	return n
}

// Rejoin re-initializes the scratch node as the same join under another
// algorithm: the inputs, and so the statistics and relation sets, are
// those of the last Join, while the resource annotation starts afresh as
// it would from Join.
func (sc *JoinScratch) Rejoin(algo JoinAlgo) *Node {
	n := &sc.n
	n.Algo = algo
	n.Res = Resources{}
	return n
}
