package plan

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"raqo/internal/catalog"
)

// randomTwin draws a connected set of up to size relations, none of them
// in avoid, by greedy expansion along join edges, and joins it up into a
// random bushy tree — built both ways, every intermediate join held to the
// reference. It returns false when avoid leaves no table to start from.
func randomTwin(t testing.TB, rng *rand.Rand, s *catalog.Schema, size int, avoid map[string]bool) (twin, bool) {
	t.Helper()
	var free []string
	for _, name := range s.Tables() {
		if !avoid[name] {
			free = append(free, name)
		}
	}
	if len(free) == 0 {
		return twin{}, false
	}
	start := free[rng.Intn(len(free))]
	in := map[string]bool{start: true}
	comps := []twin{twinScan(t, s, start)}
	for len(comps) < size {
		var cands []string
		for _, c := range comps {
			for _, n := range s.Neighbors(c.ref.rels[0]) {
				if !in[n] && !avoid[n] {
					cands = append(cands, n)
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		pick := cands[rng.Intn(len(cands))]
		in[pick] = true
		comps = append(comps, twinScan(t, s, pick))
	}
	for len(comps) > 1 {
		var pairs [][2]int
		for i := range comps {
			for j := range comps {
				if i != j && refJoinable(s, comps[i].ref, comps[j].ref) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		p := pairs[rng.Intn(len(pairs))]
		joined, err := twinJoin(t, s, comps[p[0]], comps[p[1]])
		if err != nil {
			t.Fatalf("joinable components %v and %v: %v", comps[p[0]].ref.rels, comps[p[1]].ref.rels, err)
		}
		comps[p[0]] = joined
		comps[p[1]] = comps[len(comps)-1]
		comps = comps[:len(comps)-1]
	}
	return comps[0], true
}

// TestKernelMatchesReference is the differential oracle of the join-graph
// index: over the 30- and 100-table random schemas of the scaling
// experiments and over TPC-H, seeded random pairs of bushy subtrees join
// to the same error class or, bit for bit, the same statistics and the
// same relations as under the string-keyed kernel the planners used to
// run on (reference_test.go).
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1906))
	schemas := map[string]*catalog.Schema{"tpch": catalog.TPCH(100)}
	for _, n := range []int{30, 100} {
		s, err := catalog.Random(rng, n, catalog.DefaultRandomConfig())
		if err != nil {
			t.Fatal(err)
		}
		schemas[fmt.Sprintf("random%d", n)] = s
	}
	for _, name := range []string{"tpch", "random30", "random100"} {
		s := schemas[name]
		maxSize := min(16, s.NumTables()/2)
		classes := map[error]int{}
		for round := 0; round < 400; round++ {
			a, _ := randomTwin(t, rng, s, 1+rng.Intn(maxSize), nil)
			// Half the pairs are disjoint by construction (a join or a cross
			// product); the other half may also overlap.
			var avoid map[string]bool
			if round%2 == 0 {
				avoid = map[string]bool{}
				for _, r := range a.ref.rels {
					avoid[r] = true
				}
			}
			b, ok := randomTwin(t, rng, s, 1+rng.Intn(maxSize), avoid)
			if !ok {
				continue
			}
			_, err := twinJoin(t, s, a, b)
			classes[err]++
		}
		for _, class := range []error{nil, ErrOverlap, ErrCrossProduct} {
			if classes[class] == 0 {
				t.Errorf("%s: no pair ended in %v; classes seen: %v", name, class, classes)
			}
		}
	}
}

// preorder lists the subtree's nodes, parents first.
func preorder(n *Node, dst []*Node) []*Node {
	if n == nil {
		return dst
	}
	dst = append(dst, n)
	return preorder(n.Right, preorder(n.Left, dst))
}

// TestCloneMatchesReference holds the two-allocation Clone to the
// node-by-node one it replaced: over random bushy trees on TPC-H and the
// 100-table schema (two-word relation sets), annotated and not, the copy is
// Equal to the reference's, node for node the same statistics and the same
// relation sets, and shares no node and no set backing with the original
// or between its own nodes — each node's sets have cap == len.
func TestCloneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1979))
	s100, err := catalog.Random(rng, 100, catalog.DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*catalog.Schema{catalog.TPCH(100), s100} {
		for round := 0; round < 100; round++ {
			tw, _ := randomTwin(t, rng, s, 1+rng.Intn(min(30, s.NumTables())), nil)
			n := tw.node
			for _, j := range n.Joins() {
				if rng.Intn(3) > 0 {
					j.Res = Resources{Containers: 1 + rng.Intn(100), ContainerGB: float64(1 + rng.Intn(8))}
				}
			}
			got, want := n.Clone(), refClone(n)
			if !got.Equal(want) || !got.Equal(n) {
				t.Fatalf("clone\n%s\nreference\n%s", got, want)
			}
			gotNodes, wantNodes, origNodes := preorder(got, nil), preorder(want, nil), preorder(n, nil)
			if len(gotNodes) != len(wantNodes) {
				t.Fatalf("clone has %d nodes, reference %d", len(gotNodes), len(wantNodes))
			}
			type span struct{ lo, hi uintptr }
			var spans []span
			for i, g := range gotNodes {
				w, o := wantNodes[i], origNodes[i]
				if g == o || g.Table != w.Table || g.Algo != w.Algo || g.Res != w.Res || g.g != w.g ||
					g.rows != w.rows || g.bytes != w.bytes || !slices.Equal(g.sets, w.sets) {
					t.Fatalf("node %d: clone %+v, reference %+v", i, *g, *w)
				}
				if cap(g.sets) != len(g.sets) {
					t.Fatalf("node %d: sets cap %d, len %d", i, cap(g.sets), len(g.sets))
				}
				for _, m := range []*Node{g, o} {
					lo := uintptr(unsafe.Pointer(unsafe.SliceData(m.sets)))
					spans = append(spans, span{lo, lo + uintptr(len(m.sets))*8})
				}
			}
			slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
			for i := 1; i < len(spans); i++ {
				if spans[i].lo < spans[i-1].hi {
					t.Fatal("two nodes' relation sets share backing")
				}
			}
		}
	}
	if (*Node)(nil).Clone() != nil {
		t.Fatal("a nil plan cloned to non-nil")
	}
}

// TestStaleNodesDoNotJoin: the index a node was built against is its
// generation stamp. After any mutation of the schema — AddTable shifting
// every rank above the new table's, AddJoin, SetTableSize — a node built
// before it joins neither with one built after nor with another stale one,
// through any constructor; nodes built after it join as on a fresh schema.
func TestStaleNodesDoNotJoin(t *testing.T) {
	mutations := map[string]func(s *catalog.Schema) error{
		"AddTable": func(s *catalog.Schema) error {
			return s.AddTable(catalog.Table{Name: "aaa_first", Rows: 10, RowBytes: 10})
		},
		"AddJoin": func(s *catalog.Schema) error {
			return s.AddJoin(catalog.Customer, catalog.Part, 0.5)
		},
		"SetTableSize": func(s *catalog.Schema) error {
			return s.SetTableSize(catalog.Orders, 1<<30)
		},
	}
	for name, mutate := range mutations {
		s := catalog.TPCH(100)
		oldOrders, err := NewScan(s, catalog.Orders)
		if err != nil {
			t.Fatal(err)
		}
		oldLineitem, err := NewScan(s, catalog.Lineitem)
		if err != nil {
			t.Fatal(err)
		}
		if err := mutate(s); err != nil {
			t.Fatal(err)
		}
		orders, err := NewScan(s, catalog.Orders)
		if err != nil {
			t.Fatal(err)
		}
		lineitem, err := NewScan(s, catalog.Lineitem)
		if err != nil {
			t.Fatal(err)
		}
		if Joinable(oldOrders, lineitem) || Joinable(orders, oldLineitem) {
			t.Errorf("%s: a stale and a fresh node reported joinable", name)
		}
		var arena Arena
		var scratch JoinScratch
		for _, pair := range [][2]*Node{{oldOrders, lineitem}, {orders, oldLineitem}, {oldOrders, oldLineitem}} {
			_, heapErr := NewJoin(s, SMJ, pair[0], pair[1])
			_, arenaErr := arena.Join(s, SMJ, pair[0], pair[1])
			_, scratchErr := scratch.Join(s, SMJ, pair[0], pair[1])
			for _, err := range []error{heapErr, arenaErr, scratchErr} {
				if !errors.Is(err, ErrStaleSchema) {
					t.Errorf("%s: joining across the mutation: error %v, want ErrStaleSchema", name, err)
				}
			}
		}
		j, err := NewJoin(s, SMJ, orders, lineitem)
		if err != nil {
			t.Fatalf("%s: joining fresh nodes: %v", name, err)
		}
		q, err := NewQuery(s, catalog.Orders, catalog.Lineitem)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Validate(q); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		stale := &Node{Algo: SMJ, Left: oldOrders, Right: oldLineitem}
		if err := stale.Validate(q); err == nil {
			t.Errorf("%s: Validate accepted a tree of stale nodes", name)
		}
	}
}

// fuzzBytes hands out a fuzz input byte by byte, zeros once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzSchema decodes a schema of 2 to 72 tables — past the 64 ranks of one
// bitset word — whose name order differs from their insertion order, and
// up to three edges per table.
func fuzzSchema(t testing.TB, in *fuzzBytes) (*catalog.Schema, []string) {
	s := catalog.NewSchema()
	names := make([]string, 2+in.next()%71)
	for i := range names {
		names[i] = fmt.Sprintf("%c%02d", 'a'+in.next()%4, i)
		table := catalog.Table{Name: names[i], Rows: 1 + int64(in.next())<<(in.next()%24), RowBytes: 1 + in.next()}
		if err := s.AddTable(table); err != nil {
			t.Fatal(err)
		}
	}
	for edges := in.next() % (3 * len(names)); edges > 0; edges-- {
		a, b := in.next()%len(names), in.next()%len(names)
		if a == b {
			continue
		}
		if err := s.AddJoin(names[a], names[b], float64(1+in.next())/256); err != nil {
			t.Fatal(err)
		}
	}
	return s, names
}

// fuzzSubtree decodes up to eight relations and joins them left-deep, in
// the order given, skipping any that does not join on; every join on the
// way is held to the reference.
func fuzzSubtree(t testing.TB, in *fuzzBytes, s *catalog.Schema, names []string) twin {
	cur := twinScan(t, s, names[in.next()%len(names)])
	for more := in.next() % 8; more > 0; more-- {
		leaf := twinScan(t, s, names[in.next()%len(names)])
		if joined, err := twinJoin(t, s, cur, leaf); err == nil {
			cur = joined
		}
	}
	return cur
}

// FuzzJoinGraph decodes its input into a small schema and two subtrees
// over it and asserts that the index-based kernel and the string-keyed
// reference agree on joining them, either way round. The seed corpus
// (below and under testdata/fuzz) runs under plain `go test`.
func FuzzJoinGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 9, 3, 20, 1, 200, 0, 50, 2, 0, 1, 127, 0, 1, 1, 1, 0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the index"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		s, names := fuzzSchema(t, &in)
		a := fuzzSubtree(t, &in, s, names)
		b := fuzzSubtree(t, &in, s, names)
		_, _ = twinJoin(t, s, a, b)
		_, _ = twinJoin(t, s, b, a)
	})
}
