// Package plan defines logical queries and physical plan trees for the RAQO
// optimizer, together with cardinality and size estimation over a catalog
// join graph, and the per-operator resource annotations that make a plan a
// joint query/resource plan.
package plan

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"raqo/internal/catalog"
	"raqo/internal/units"
)

// Sentinel errors for the candidate-rejection paths of join construction.
// The planners treat a failed join candidate as control flow (skip the
// candidate), so these are returned un-wrapped by the zero-allocation
// constructor Arena.Join; NewJoin wraps them with the relation context for
// human-facing callers.
var (
	// ErrCrossProduct reports a join whose sides share no join-graph edge.
	ErrCrossProduct = errors.New("plan: cross product join")
	// ErrOverlap reports a join whose sides cover a common relation.
	ErrOverlap = errors.New("plan: relation appears on both join sides")
	// ErrStaleSchema reports a join input built before the schema's latest
	// mutation (or against another schema): its relation sets are over
	// table ranks the schema no longer uses.
	ErrStaleSchema = errors.New("plan: node built against an earlier form of the schema")
)

// JoinAlgo is a physical join operator implementation. The paper studies
// Hive's two stable implementations: shuffle sort-merge join and broadcast
// hash join.
type JoinAlgo int

// Join operator implementations.
const (
	SMJ JoinAlgo = iota // shuffle sort-merge join
	BHJ                 // broadcast hash join (map join)
)

// Algos lists all join implementations, in a stable order.
var Algos = []JoinAlgo{SMJ, BHJ}

// String returns the short operator name used throughout the paper.
func (a JoinAlgo) String() string {
	switch a {
	case SMJ:
		return "SMJ"
	case BHJ:
		return "BHJ"
	}
	return fmt.Sprintf("JoinAlgo(%d)", int(a))
}

// ParseAlgo maps an operator name, as String writes it, back to its
// JoinAlgo; it reports false for any other name.
func ParseAlgo(name string) (JoinAlgo, bool) {
	for _, a := range Algos {
		if a.String() == name {
			return a, true
		}
	}
	return 0, false
}

// Resources is the resource configuration of one plan operator: the number
// of concurrent containers and the size of each container. It corresponds
// to the YARN container model in Section II-B. A zero value means
// "unplanned".
type Resources struct {
	Containers  int
	ContainerGB float64
}

// IsZero reports whether no resources have been planned.
func (r Resources) IsZero() bool { return r.Containers == 0 && r.ContainerGB == 0 }

// TotalGB is the total memory reserved by the configuration.
func (r Resources) TotalGB() float64 { return float64(r.Containers) * r.ContainerGB }

// String renders the configuration, e.g. "10x3GB".
func (r Resources) String() string {
	if r.IsZero() {
		return "unplanned"
	}
	return fmt.Sprintf("%dx%.0fGB", r.Containers, r.ContainerGB)
}

// Query is a logical join query: the set of relations to join over a
// schema's join graph. The paper's queries "consist of a set of relations
// that need to be joined".
//
// A Query is not mutated after construction: its planning form (Form) is
// derived from Schema and Rels and kept for the Query's lifetime, keyed
// to the schema's index snapshot, so only a schema change derives it again.
type Query struct {
	Schema *catalog.Schema
	Rels   []string // sorted, unique

	form    atomic.Pointer[Form] // the published form; see Form
	planned atomic.Bool          // a Form call has been made with a scratch
}

// NewQuery validates and normalizes a query. The relations must exist, be
// unique, and form a connected subgraph (no cross products).
func NewQuery(s *catalog.Schema, rels ...string) (*Query, error) {
	if s == nil {
		return nil, fmt.Errorf("plan: nil schema")
	}
	if len(rels) == 0 {
		return nil, fmt.Errorf("plan: query needs at least one relation")
	}
	sorted := append([]string(nil), rels...)
	sort.Strings(sorted)
	for i, r := range sorted {
		if _, ok := s.Table(r); !ok {
			return nil, fmt.Errorf("plan: unknown relation %q", r)
		}
		if i > 0 && sorted[i-1] == r {
			return nil, fmt.Errorf("plan: duplicate relation %q", r)
		}
	}
	if !s.Connected(sorted) {
		return nil, fmt.Errorf("plan: relations %v are not connected in the join graph", sorted)
	}
	return &Query{Schema: s, Rels: sorted}, nil
}

// Index returns the position of a relation in the query's normalized
// relation list, or -1.
func (q *Query) Index(rel string) int {
	i := sort.SearchStrings(q.Rels, rel)
	if i < len(q.Rels) && q.Rels[i] == rel {
		return i
	}
	return -1
}

// NumJoins returns the number of binary joins any plan for the query has.
func (q *Query) NumJoins() int { return len(q.Rels) - 1 }

// Node is a physical plan operator: either a table scan (Table != "") or a
// binary join. Statistics (estimated output rows/bytes) are computed when
// the node is built and treated as immutable; the resource annotation Res
// is the one mutable field, filled in by the resource planner.
type Node struct {
	Table string // scan leaf if non-empty

	Algo        JoinAlgo
	Left, Right *Node

	// Res is the resource configuration chosen for this operator by the
	// resource planner. Scans share the container wave of the join above
	// them (operators are pipelined within shuffle boundaries, §VI-B), so
	// Res is only meaningful on join nodes.
	Res Resources

	rows  float64
	bytes float64

	// g is the join-graph index the node was built against and sets the
	// node's two relation sets over g's table ranks, g.Words() words each:
	// the relations the subtree covers, then the union of their adjacency
	// rows (every relation joinable with the subtree). Overlap is then
	// a.set ∩ b.set and joinability a.nbr ∩ b.set, whatever the sides' size.
	g    *catalog.Index
	sets []uint64
}

// set returns the relation set the subtree covers.
func (n *Node) set() []uint64 { return n.sets[:len(n.sets)/2] }

// nbr returns the union of the adjacency rows of the covered relations.
func (n *Node) nbr() []uint64 { return n.sets[len(n.sets)/2:] }

// cardinality returns the number of members of a relation set.
func cardinality(set []uint64) int {
	n := 0
	for _, x := range set {
		n += bits.OnesCount64(x)
	}
	return n
}

// intersects reports whether two relation sets share a member.
func intersects(a, b []uint64) bool {
	for i, x := range a {
		if x&b[i] != 0 {
			return true
		}
	}
	return false
}

// initScan makes n a scan of the table at rank in g, with its relation
// sets in sets (2·g.Words() words, contents arbitrary).
func (n *Node) initScan(g *catalog.Index, rank int, sets []uint64) {
	n.Table = g.Name(rank)
	rows, size := g.Stats(rank)
	n.rows, n.bytes = rows, float64(size)
	w := g.Words()
	clear(sets[:w])
	sets[rank/64] |= 1 << (rank % 64)
	copy(sets[w:], g.Adj(rank))
	n.g, n.sets = g, sets
}

// initJoin makes n the join of left and right, which joinStats accepted,
// with the estimate it computed for them and its relation sets — the
// unions of the sides' — in sets (as long as theirs, contents arbitrary).
func (n *Node) initJoin(algo JoinAlgo, left, right *Node, out Estimate, sets []uint64) {
	n.Algo = algo
	n.Left, n.Right = left, right
	n.rows, n.bytes = out.rows, out.bytes
	for i := range sets {
		sets[i] = left.sets[i] | right.sets[i]
	}
	n.g, n.sets = left.g, sets
}

// NewScan builds a scan leaf for the named table.
func NewScan(s *catalog.Schema, table string) (*Node, error) {
	g := s.Index()
	rank := g.Rank(table)
	if rank < 0 {
		return nil, fmt.Errorf("plan: unknown table %q", table)
	}
	n := &Node{}
	n.initScan(g, rank, make([]uint64, 2*g.Words()))
	return n, nil
}

// NewJoin builds a join node over two subtrees, estimating output
// cardinality as |L|·|R|·∏(selectivities of join-graph edges crossing the
// two sides). It returns an error when no edge crosses the sides (a cross
// product), when the sides overlap, or when a side was built before the
// schema last changed.
func NewJoin(s *catalog.Schema, algo JoinAlgo, left, right *Node) (*Node, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("plan: nil join input")
	}
	out, err := joinStats(s.Index(), left, right)
	if err != nil {
		return nil, fmt.Errorf("plan: joining %v and %v: %w", left.Relations(), right.Relations(), err)
	}
	n := &Node{}
	n.initJoin(algo, left, right, out, make([]uint64, len(left.sets)))
	return n, nil
}

// joinStats checks a candidate join of two subtrees and estimates its
// output: JoinEstimate over the selectivities of the join-graph edges
// crossing the two sides. It returns ErrStaleSchema when a side was not
// built against g, ErrOverlap when the sides share a relation and
// ErrCrossProduct when no edge crosses them.
func joinStats(g *catalog.Index, left, right *Node) (Estimate, error) {
	if left.g != g || right.g != g {
		return Estimate{}, ErrStaleSchema
	}
	if intersects(left.set(), right.set()) {
		return Estimate{}, ErrOverlap
	}
	sel, crossing := g.CrossSelectivity(left.set(), right.set(), right.nbr())
	if crossing == 0 {
		return Estimate{}, ErrCrossProduct
	}
	return JoinEstimate(left.Estimate(), right.Estimate(), sel), nil
}

// Estimate is a plan's estimated output — its cardinality and its size in
// bytes — as the plan's root node holds it. A planner that keeps its
// sub-plans as values rather than nodes keeps their Estimates, and
// JoinEstimate derives a join's from its inputs' as NewJoin would.
type Estimate struct{ rows, bytes float64 }

// Estimate returns the node's estimated output.
func (n *Node) Estimate() Estimate { return Estimate{n.rows, n.bytes} }

// JoinEstimate returns the estimated output of a join of left and right
// whose crossing join-graph edges' selectivities multiply to sel:
// |L|·|R|·sel rows (at least one), each as wide as a left row and a right
// row together. sel must be folded in CrossSelectivity's order for the
// estimate to be NewJoin's bit for bit.
func JoinEstimate(left, right Estimate, sel float64) Estimate {
	rows := left.rows * right.rows * sel
	if rows < 1 {
		rows = 1
	}
	var width float64
	if left.rows > 0 && right.rows > 0 {
		width = left.bytes/left.rows + right.bytes/right.rows
	}
	return Estimate{rows, rows * width}
}

// LeftIsSmaller reports whether the join of inputs with estimates left and
// right has its smaller input, the one SmallerInputGB measures, on the
// left; a tie goes to the right, as in SmallerInputGB.
func LeftIsSmaller(left, right Estimate) bool { return left.bytes < right.bytes }

// AppendSets appends the node's relation sets to dst, in the layout
// JoinScratch.Join and AppendJoinSets take them.
func (n *Node) AppendSets(dst []uint64) []uint64 { return append(dst, n.sets...) }

// AppendJoinSets appends to dst the relation sets of the join of a
// sub-plan whose sets are left with right: their unions.
func AppendJoinSets(dst, left []uint64, right *Node) []uint64 {
	for i, x := range left {
		dst = append(dst, x|right.sets[i])
	}
	return dst
}

// Joinable reports whether any relation covered by a is joinable (shares a
// join-graph edge) with any relation covered by b. Nodes built against
// different forms of a schema are not joinable.
func Joinable(a, b *Node) bool {
	return a.g == b.g && intersects(a.nbr(), b.set())
}

// IsScan reports whether the node is a table scan.
func (n *Node) IsScan() bool { return n.Table != "" }

// Rows returns the estimated output cardinality.
func (n *Node) Rows() float64 { return n.rows }

// Bytes returns the estimated output size. The internal estimate is kept
// as float64 for the cost model; the exported accessor speaks units.Bytes
// so callers cannot confuse it with a GB-denominated figure.
func (n *Node) Bytes() units.Bytes { return units.Bytes(n.bytes) }

// OutputGB returns the estimated output size in GB.
func (n *Node) OutputGB() float64 { return n.bytes / float64(units.GB) }

// Relations returns the sorted relations covered by the subtree, decoded
// from the node's relation set.
func (n *Node) Relations() []string {
	out := make([]string, 0, cardinality(n.set()))
	for w, x := range n.set() {
		for ; x != 0; x &= x - 1 {
			out = append(out, n.g.Name(w*64+bits.TrailingZeros64(x)))
		}
	}
	return out
}

// SmallerInputGB returns the size in GB of the smaller join input — the
// "ss" feature of the paper's cost model — and is only meaningful on join
// nodes.
func (n *Node) SmallerInputGB() float64 {
	if n.IsScan() {
		return 0
	}
	l, r := n.Left.bytes, n.Right.bytes
	if l < r {
		return l / float64(units.GB)
	}
	return r / float64(units.GB)
}

// LargerInputGB returns the size in GB of the larger join input.
func (n *Node) LargerInputGB() float64 {
	if n.IsScan() {
		return 0
	}
	l, r := n.Left.bytes, n.Right.bytes
	if l > r {
		return l / float64(units.GB)
	}
	return r / float64(units.GB)
}

// Joins appends all join nodes of the subtree in post-order (children before
// parents) — the order in which stages execute.
func (n *Node) Joins() []*Node { return n.AppendJoins(nil) }

// AppendJoins appends the subtree's join nodes to dst in post-order and
// returns the extended slice. Passing a reused buffer (dst[:0]) makes the
// walk allocation-free — the hot-path form of Joins.
func (n *Node) AppendJoins(dst []*Node) []*Node {
	if n == nil || n.IsScan() {
		return dst
	}
	dst = n.Left.AppendJoins(dst)
	dst = n.Right.AppendJoins(dst)
	return append(dst, n)
}

// Clone deep-copies the plan tree, including resource annotations, in two
// allocations: one slice holds every node of the copy and one every
// node's relation sets, each carved with cap == len so no two nodes share
// writable backing.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	nodes, words := n.size()
	c := cloner{nodes: make([]Node, nodes), sets: make([]uint64, words)}
	return c.clone(n)
}

// size counts the subtree's nodes and their relation-set words.
func (n *Node) size() (nodes, words int) {
	if n == nil {
		return 0, 0
	}
	ln, lw := n.Left.size()
	rn, rw := n.Right.size()
	return 1 + ln + rn, len(n.sets) + lw + rw
}

// cloner carves a tree copy out of the storage Clone sized for it.
type cloner struct {
	nodes []Node
	sets  []uint64
}

func (c *cloner) clone(n *Node) *Node {
	if n == nil {
		return nil
	}
	m := &c.nodes[0]
	c.nodes = c.nodes[1:]
	*m = *n
	m.sets = nil
	if k := len(n.sets); k > 0 {
		m.sets = c.sets[:k:k]
		copy(m.sets, n.sets)
		c.sets = c.sets[k:]
	}
	m.Left = c.clone(n.Left)
	m.Right = c.clone(n.Right)
	return m
}

// Equal reports whether two plans are the same joint plan: same join
// order, same operator implementations and the same resource annotation
// on every join — exactly when their SignatureWithResources agree. It
// walks both trees without allocating: the arbiters ask it once per
// re-planned admission.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.IsScan() || o.IsScan() {
		return n.Table == o.Table
	}
	return n.Algo == o.Algo && n.Res == o.Res && n.Left.Equal(o.Left) && n.Right.Equal(o.Right)
}

// Signature returns a canonical string identifying the plan's logical and
// physical shape (join order + operator implementations), ignoring resource
// annotations. Two plans with equal signatures are the same plan.
func (n *Node) Signature() string {
	var buf [256]byte
	return string(n.appendSig(buf[:0], false))
}

// SignatureWithResources is Signature but also distinguishing the resource
// annotations: the stored identity of a joint plan (feedback observations,
// golden files). To compare two plans in memory use Equal.
func (n *Node) SignatureWithResources() string {
	var buf [256]byte
	return string(n.appendSig(buf[:0], true))
}

// appendSig appends the signature to b: built in a caller's buffer, it
// costs the one allocation of the returned string.
func (n *Node) appendSig(b []byte, withRes bool) []byte {
	if n.IsScan() {
		return append(b, n.Table...)
	}
	b = append(b, n.Algo.String()...)
	if withRes && !n.Res.IsZero() {
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(n.Res.Containers), 10)
		b = append(b, 'x')
		b = strconv.AppendFloat(b, n.Res.ContainerGB, 'f', -1, 64)
		b = append(b, "GB"...)
	}
	b = append(b, '(')
	b = n.Left.appendSig(b, withRes)
	b = append(b, ',')
	b = n.Right.appendSig(b, withRes)
	return append(b, ')')
}

// String renders the plan as a multi-line, indented operator tree.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsScan() {
		fmt.Fprintf(b, "%sScan(%s) rows=%.0f size=%s\n", indent, n.Table, n.rows, units.Bytes(n.bytes))
		return
	}
	fmt.Fprintf(b, "%s%s [%s] rows=%.0f size=%s\n", indent, n.Algo, n.Res, n.rows, units.Bytes(n.bytes))
	n.Left.render(b, depth+1)
	n.Right.render(b, depth+1)
}

// Validate checks structural invariants of the plan against a query: it
// must cover exactly the query's relations, every join must be edge-backed,
// and no relation may repeat. Statistics consistency is implied by
// construction; Validate exists to catch hand-built or mutated trees, so
// it does not trust the relation sets cached at construction: a scan's
// must be its table's, and a join's the unions of its inputs'.
func (n *Node) Validate(q *Query) error {
	if n == nil {
		return fmt.Errorf("plan: nil plan")
	}
	g := q.Schema.Index()
	if err := n.validate(g); err != nil {
		return err
	}
	want := make([]uint64, g.Words())
	for _, r := range q.Rels {
		rank := g.Rank(r)
		if rank < 0 {
			return fmt.Errorf("plan: query relation %q is not in the schema", r)
		}
		want[rank/64] |= 1 << (rank % 64)
	}
	if !slices.Equal(n.set(), want) {
		return fmt.Errorf("plan: covers %v, query wants %v", n.Relations(), q.Rels)
	}
	return nil
}

// validate checks the subtree at n bottom-up against g.
func (n *Node) validate(g *catalog.Index) error {
	if n.g != g || len(n.sets) != 2*g.Words() {
		return fmt.Errorf("plan: %w", ErrStaleSchema)
	}
	if n.IsScan() {
		rank := g.Rank(n.Table)
		if rank < 0 {
			return fmt.Errorf("plan: scan of unknown table %q", n.Table)
		}
		if set := n.set(); cardinality(set) != 1 || set[rank/64] != 1<<(rank%64) || !slices.Equal(n.nbr(), g.Adj(rank)) {
			return fmt.Errorf("plan: scan of %q carries another table's relation sets", n.Table)
		}
		return nil
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("plan: join with missing input")
	}
	if err := n.Left.validate(g); err != nil {
		return err
	}
	if err := n.Right.validate(g); err != nil {
		return err
	}
	switch {
	case intersects(n.Left.set(), n.Right.set()):
		return fmt.Errorf("plan: joining %v and %v: %w", n.Left.Relations(), n.Right.Relations(), ErrOverlap)
	case !intersects(n.Left.nbr(), n.Right.set()):
		return fmt.Errorf("plan: joining %v and %v: %w", n.Left.Relations(), n.Right.Relations(), ErrCrossProduct)
	}
	for i, x := range n.sets {
		if x != n.Left.sets[i]|n.Right.sets[i] {
			return fmt.Errorf("plan: join over %v is not the union of its inputs", n.Relations())
		}
	}
	return nil
}

// LeftDeep builds a left-deep plan joining the given relations in order with
// the given algorithm at every join. It is a convenience for tests and
// examples.
func LeftDeep(s *catalog.Schema, algo JoinAlgo, rels ...string) (*Node, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("plan: no relations")
	}
	cur, err := NewScan(s, rels[0])
	if err != nil {
		return nil, err
	}
	for _, r := range rels[1:] {
		leaf, err := NewScan(s, r)
		if err != nil {
			return nil, err
		}
		cur, err = NewJoin(s, algo, cur, leaf)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}
