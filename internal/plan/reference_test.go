package plan

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"raqo/internal/catalog"
)

// This file keeps the join kernel the planners ran on before the
// join-graph index — sorted relation-name lists merged string by string,
// statistics folded over catalog.Schema's string-keyed edge maps — as the
// reference the index-based kernel is held to, bit for bit, by the
// differential test and the fuzz target in kernel_test.go. The three
// functions are the former plan.go code moved here unchanged.

// refJoinStats is the former joinStats: a nested loop over the two sides'
// sorted relation names, multiplying edge selectivities in that order.
func refJoinStats(s *catalog.Schema, left, right *refNode) (rows, bytes float64, err error) {
	sel := 1.0
	crossing := 0
	for _, a := range left.rels {
		for _, b := range right.rels {
			if es, ok := s.Selectivity(a, b); ok {
				sel *= es
				crossing++
			}
		}
	}
	if crossing == 0 {
		return 0, 0, ErrCrossProduct
	}
	rows = left.rows * right.rows * sel
	if rows < 1 {
		rows = 1
	}
	var width float64
	if left.rows > 0 && right.rows > 0 {
		width = left.bytes/left.rows + right.bytes/right.rows
	}
	return rows, rows * width, nil
}

// refMergeRelsInto is the former mergeRelsInto.
func refMergeRelsInto(dst []string, a, b []string) ([]string, error) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return nil, ErrOverlap
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst, nil
}

// refJoinable is the former Joinable.
func refJoinable(s *catalog.Schema, a, b *refNode) bool {
	for _, x := range a.rels {
		for _, y := range b.rels {
			if s.Joinable(x, y) {
				return true
			}
		}
	}
	return false
}

// refClone is the former Clone, one node and one relation-set slice
// allocated per node: the oracle of the two-allocation Clone.
func refClone(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.sets = append([]uint64(nil), n.sets...)
	c.Left = refClone(n.Left)
	c.Right = refClone(n.Right)
	return &c
}

// refNode is what the former Node kept per subtree: its statistics and
// its sorted relation names.
type refNode struct {
	rows, bytes float64
	rels        []string
}

func refScan(s *catalog.Schema, table string) *refNode {
	t := s.MustTable(table)
	return &refNode{rows: float64(t.Rows), bytes: float64(t.Size()), rels: []string{table}}
}

// refJoin is the former NewJoin without the node: overlap is checked
// first, then the cross product.
func refJoin(s *catalog.Schema, left, right *refNode) (*refNode, error) {
	rels, err := refMergeRelsInto(nil, left.rels, right.rels)
	if err != nil {
		return nil, err
	}
	rows, bytes, err := refJoinStats(s, left, right)
	if err != nil {
		return nil, err
	}
	return &refNode{rows: rows, bytes: bytes, rels: rels}, nil
}

// twin is one subtree built both ways.
type twin struct {
	node *Node
	ref  *refNode
}

func twinScan(t testing.TB, s *catalog.Schema, table string) twin {
	t.Helper()
	n, err := NewScan(s, table)
	if err != nil {
		t.Fatal(err)
	}
	tw := twin{n, refScan(s, table)}
	tw.mustAgree(t)
	return tw
}

// mustAgree holds a subtree's index-derived state to the reference's.
func (tw twin) mustAgree(t testing.TB) {
	t.Helper()
	if math.Float64bits(tw.node.rows) != math.Float64bits(tw.ref.rows) ||
		math.Float64bits(tw.node.bytes) != math.Float64bits(tw.ref.bytes) {
		t.Fatalf("over %v: rows, bytes = %v, %v; reference %v, %v", tw.ref.rels, tw.node.rows, tw.node.bytes, tw.ref.rows, tw.ref.bytes)
	}
	if got := tw.node.Relations(); !reflect.DeepEqual(got, tw.ref.rels) {
		t.Fatalf("Relations() = %v, reference %v", got, tw.ref.rels)
	}
}

// errClass names the sentinel an error wraps, so the bare sentinels of the
// zero-allocation constructors and NewJoin's wrapped ones compare equal.
func errClass(err error) error {
	for _, class := range []error{ErrOverlap, ErrCrossProduct, ErrStaleSchema} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// twinJoin joins two subtrees through every constructor of the index-based
// kernel and through the reference, and holds each outcome — the error
// class, or the statistics bit for bit and the relations — to the
// reference's. It returns the joined twin, or the error class.
func twinJoin(t testing.TB, s *catalog.Schema, a, b twin) (twin, error) {
	t.Helper()
	ref, refErr := refJoin(s, a.ref, b.ref)
	if got, want := Joinable(a.node, b.node), refJoinable(s, a.ref, b.ref); got != want {
		t.Fatalf("Joinable(%v, %v) = %v, reference %v", a.ref.rels, b.ref.rels, got, want)
	}
	var arena Arena
	var scratch JoinScratch
	heap, heapErr := NewJoin(s, SMJ, a.node, b.node)
	inArena, arenaErr := arena.Join(s, SMJ, a.node, b.node)
	inScratch, scratchErr := scratch.Join(s, SMJ, a.node, b.node)
	for _, err := range []error{heapErr, arenaErr, scratchErr} {
		if errClass(err) != refErr {
			t.Fatalf("join of %v and %v: error %v, reference %v", a.ref.rels, b.ref.rels, err, refErr)
		}
	}
	if refErr != nil {
		return twin{}, refErr
	}
	for _, n := range []*Node{heap, inArena, inScratch, scratch.Rejoin(BHJ)} {
		twin{n, ref}.mustAgree(t)
	}
	return twin{heap, ref}, nil
}
