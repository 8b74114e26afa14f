package plan

import (
	"math/rand"
	"strings"
	"testing"

	"raqo/internal/catalog"
)

// sigSchema builds a three-table chain a—b—c for signature tests.
func sigSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema()
	for _, tb := range []catalog.Table{
		{Name: "a", Rows: 1000, RowBytes: 100},
		{Name: "b", Rows: 2000, RowBytes: 50},
		{Name: "c", Rows: 3000, RowBytes: 20},
	} {
		if err := s.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddJoin("a", "b", 0.01); err != nil {
		t.Fatal(err)
	}
	if err := s.AddJoin("b", "c", 0.001); err != nil {
		t.Fatal(err)
	}
	return s
}

func sigTree(t *testing.T) *Node {
	t.Helper()
	n, err := LeftDeep(sigSchema(t), SMJ, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSignatureCachedStable: repeated calls return the same string and
// agree with a fresh identically-shaped tree.
func TestSignatureCachedStable(t *testing.T) {
	n := sigTree(t)
	first := n.Signature()
	if again := n.Signature(); again != first {
		t.Fatalf("Signature changed between calls: %q vs %q", again, first)
	}
	if other := sigTree(t).Signature(); other != first {
		t.Fatalf("same shape, different signature: %q vs %q", other, first)
	}
	if !strings.Contains(first, "SMJ") || !strings.Contains(first, "a") {
		t.Fatalf("implausible signature %q", first)
	}
}

// TestSignatureWithResourcesInvalidatedOnMutation: mutating an operator's
// resource annotation after a signature was computed must produce a new,
// different signature.
func TestSignatureWithResourcesInvalidatedOnMutation(t *testing.T) {
	n := sigTree(t)
	for _, j := range n.Joins() {
		j.Res = Resources{Containers: 10, ContainerGB: 3}
	}
	before := n.SignatureWithResources()
	if again := n.SignatureWithResources(); again != before {
		t.Fatalf("signature unstable: %q vs %q", again, before)
	}

	// Mutate a deep operator, not the root: the root's signature must
	// still notice.
	n.Left.Res = Resources{Containers: 40, ContainerGB: 6}
	after := n.SignatureWithResources()
	if after == before {
		t.Fatalf("signature did not change after Res mutation: %q", after)
	}
	if !strings.Contains(after, "40x6GB") {
		t.Fatalf("signature %q does not reflect the new annotation", after)
	}

	// Mutating back restores the original signature text.
	n.Left.Res = Resources{Containers: 10, ContainerGB: 3}
	if restored := n.SignatureWithResources(); restored != before {
		t.Fatalf("signature did not round-trip: %q vs %q", restored, before)
	}
}

// TestSignatureSameShapeDifferentResources: the shape signature must not
// distinguish resource annotations, while the resource signature must.
func TestSignatureSameShapeDifferentResources(t *testing.T) {
	x, y := sigTree(t), sigTree(t)
	for _, j := range x.Joins() {
		j.Res = Resources{Containers: 10, ContainerGB: 3}
	}
	for _, j := range y.Joins() {
		j.Res = Resources{Containers: 80, ContainerGB: 9}
	}
	if x.Signature() != y.Signature() {
		t.Fatalf("shape signatures differ for identical shapes: %q vs %q", x.Signature(), y.Signature())
	}
	if x.SignatureWithResources() == y.SignatureWithResources() {
		t.Fatalf("resource signatures collide across different annotations: %q", x.SignatureWithResources())
	}
}

// TestSignatureFractionalGB: close fractional container sizes must not
// collide (the formatter is exact, not rounded-to-integer).
func TestSignatureFractionalGB(t *testing.T) {
	x, y := sigTree(t), sigTree(t)
	for _, j := range x.Joins() {
		j.Res = Resources{Containers: 10, ContainerGB: 2.5}
	}
	for _, j := range y.Joins() {
		j.Res = Resources{Containers: 10, ContainerGB: 2.4}
	}
	if x.SignatureWithResources() == y.SignatureWithResources() {
		t.Fatalf("2.5GB and 2.4GB collide: %q", x.SignatureWithResources())
	}
}

// TestCloneCarriesSignatures: a clone is an equal plan, and mutating the
// clone's annotations must not disturb the original's signature.
func TestCloneCarriesSignatures(t *testing.T) {
	n := sigTree(t)
	for _, j := range n.Joins() {
		j.Res = Resources{Containers: 10, ContainerGB: 3}
	}
	orig := n.SignatureWithResources()
	c := n.Clone()
	if c.SignatureWithResources() != orig {
		t.Fatalf("clone signature differs: %q vs %q", c.SignatureWithResources(), orig)
	}
	c.Res = Resources{Containers: 99, ContainerGB: 9}
	if c.SignatureWithResources() == orig {
		t.Fatal("clone mutation did not change its signature")
	}
	if n.SignatureWithResources() != orig {
		t.Fatal("mutating the clone disturbed the original's signature")
	}
}

// TestEqualMatchesSignature is Equal's oracle: over seeded random bushy
// trees, each against a clone perturbed in one of the ways two joint plans
// can differ (or in none, or against an unrelated tree), Equal agrees with
// comparing SignatureWithResources, in both directions.
func TestEqualMatchesSignature(t *testing.T) {
	s := catalog.TPCH(100)
	rng := rand.New(rand.NewSource(20))
	randomPlan := func() *Node {
		tw, _ := randomTwin(t, rng, s, 2+rng.Intn(6), nil)
		n := tw.node.Clone()
		for _, j := range n.Joins() {
			j.Algo = Algos[rng.Intn(len(Algos))]
			if rng.Intn(4) > 0 { // a quarter of the operators stay unplanned
				j.Res = Resources{Containers: 1 + rng.Intn(3), ContainerGB: float64(1 + rng.Intn(2))}
			}
		}
		return n
	}
	equal, differ := 0, 0
	for i := 0; i < 600; i++ {
		a := randomPlan()
		b := a.Clone()
		joins := b.Joins()
		j := joins[rng.Intn(len(joins))]
		switch rng.Intn(7) {
		case 0: // the same plan
		case 1:
			j.Res.Containers++
		case 2:
			j.Res.ContainerGB += 0.5
		case 3:
			j.Left, j.Right = j.Right, j.Left
		case 4:
			j.Algo = SMJ + BHJ - j.Algo
		case 5:
			j.Res = Resources{} // no change where it already was unplanned
		case 6:
			b = randomPlan()
		}
		want := a.SignatureWithResources() == b.SignatureWithResources()
		if a.Equal(b) != want || b.Equal(a) != want {
			t.Fatalf("pair %d: Equal = %v / %v, signatures equal = %v\n%s\n%s",
				i, a.Equal(b), b.Equal(a), want, a.SignatureWithResources(), b.SignatureWithResources())
		}
		if want {
			equal++
		} else {
			differ++
		}
	}
	if equal < 50 || differ < 50 {
		t.Fatalf("lopsided oracle: %d equal pairs, %d different", equal, differ)
	}
	var none *Node
	if !none.Equal(nil) || none.Equal(sigTree(t)) || sigTree(t).Equal(nil) {
		t.Fatal("nil plans: only nil equals nil")
	}
}

// TestArenaMatchesNew: arena-built plans are statistically identical to
// heap-built ones, and reset recycling reuses storage without leaking
// state into the next query.
func TestArenaMatchesNew(t *testing.T) {
	s := sigSchema(t)
	var a Arena
	for round := 0; round < 3; round++ {
		la, err := a.Scan(s, "a")
		if err != nil {
			t.Fatal(err)
		}
		lb, err := a.Scan(s, "b")
		if err != nil {
			t.Fatal(err)
		}
		j, err := a.Join(s, BHJ, la, lb)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := LeftDeep(s, BHJ, "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if j.Rows() != ref.Rows() || j.Bytes() != ref.Bytes() {
			t.Fatalf("round %d: arena stats (%v rows, %v) != NewJoin stats (%v rows, %v)",
				round, j.Rows(), j.Bytes(), ref.Rows(), ref.Bytes())
		}
		if j.Signature() != ref.Signature() {
			t.Fatalf("round %d: arena signature %q != %q", round, j.Signature(), ref.Signature())
		}
		a.Reset()
	}
}

// TestArenaRejectsBadJoins: the sentinel error paths.
func TestArenaRejectsBadJoins(t *testing.T) {
	s := sigSchema(t)
	var a Arena
	la, _ := a.Scan(s, "a")
	lc, _ := a.Scan(s, "c")
	if _, err := a.Join(s, SMJ, la, lc); err != ErrCrossProduct {
		t.Fatalf("cross product err = %v, want ErrCrossProduct", err)
	}
	la2, _ := a.Scan(s, "a")
	if _, err := a.Join(s, SMJ, la, la2); err != ErrOverlap {
		t.Fatalf("overlap err = %v, want ErrOverlap", err)
	}
}

// TestJoinScratchReuse: successive scratch joins reuse one node and stay
// equivalent to NewJoin, with nothing of the previous join left behind.
func TestJoinScratchReuse(t *testing.T) {
	s := sigSchema(t)
	la, _ := NewScan(s, "a")
	lb, _ := NewScan(s, "b")
	lc, _ := NewScan(s, "c")

	var sc JoinScratch
	j1, err := sc.Join(s, SMJ, la, lb)
	if err != nil {
		t.Fatal(err)
	}
	sig1 := j1.Signature()
	j2, err := sc.Join(s, BHJ, lb, lc)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("scratch should reuse one node")
	}
	ref, err := NewJoin(s, BHJ, lb, lc)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Signature() != ref.Signature() || j2.Rows() != ref.Rows() {
		t.Fatalf("scratch join diverges from NewJoin: %q vs %q", j2.Signature(), ref.Signature())
	}
	if j2.Signature() == sig1 {
		t.Fatal("stale signature survived scratch reuse")
	}
}

// TestAppendJoinsMatchesJoins: the buffer-reusing walk yields the same
// nodes in the same order.
func TestAppendJoinsMatchesJoins(t *testing.T) {
	n := sigTree(t)
	a := n.Joins()
	buf := make([]*Node, 0, 4)
	b := n.AppendJoins(buf[:0])
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}
