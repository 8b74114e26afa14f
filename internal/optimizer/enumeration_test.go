package optimizer_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/optimizertest"
	"raqo/internal/optimizer/selinger"
	"raqo/internal/plan"
	"raqo/internal/workload"
)

// sameTree reports whether two trees have the same shape, scans,
// operators and, bit for bit, the same estimated rows and bytes.
func sameTree(a, b *plan.Node) bool {
	if a.IsScan() || b.IsScan() {
		return a.Table == b.Table
	}
	return a.Algo == b.Algo &&
		math.Float64bits(a.Rows()) == math.Float64bits(b.Rows()) && a.Bytes() == b.Bytes() &&
		sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

// sameError reports whether two errors are both nil or say the same.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// rawQuery is a query over the given relations, sorted, that skips
// NewQuery's connectivity check: the kernels must fail on a disconnected
// one exactly as their references do.
func rawQuery(s *catalog.Schema, rels []string) *plan.Query {
	rels = slices.Clone(rels)
	sort.Strings(rels)
	return &plan.Query{Schema: s, Rels: rels}
}

// randomSubset draws k distinct tables of s, connected or not.
func randomSubset(rng *rand.Rand, s *catalog.Schema, k int) []string {
	tables := s.Tables()
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	return tables[:k]
}

// enumSchemas are TPC-H and the 30- and 100-table random schemas of the
// scaling experiments.
func enumSchemas(t testing.TB) map[string]*catalog.Schema {
	t.Helper()
	rng := rand.New(rand.NewSource(715))
	out := map[string]*catalog.Schema{"tpch": catalog.TPCH(100)}
	for _, n := range []int{30, 100} {
		s, err := catalog.Random(rng, n, catalog.DefaultRandomConfig())
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("random%d", n)] = s
	}
	return out
}

// drawTree draws a random tree for q from ts, over q's planning form.
func drawTree(ts *optimizer.TreeScratch, rng *rand.Rand, q *plan.Query) (*plan.Node, error) {
	f, err := q.Form(nil)
	if err != nil {
		return nil, err
	}
	return ts.RandomTree(rng, f)
}

// checkRandomTrees draws trees for q from ts and from the pair-scan
// reference with equally seeded generators and fails on the first tree,
// error or generator position that differs.
func checkRandomTrees(t testing.TB, ts *optimizer.TreeScratch, q *plan.Query, seed int64, draws int) {
	t.Helper()
	got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for d := range draws {
		a, errA := drawTree(ts, got, q)
		b, errB := pairScanRandomTree(want, q)
		if !sameError(errA, errB) {
			t.Fatalf("%v seed %d draw %d: error %v, reference %v", q.Rels, seed, d, errA, errB)
		}
		if errA == nil && !sameTree(a, b) {
			t.Fatalf("%v seed %d draw %d: tree\n%s\nreference\n%s", q.Rels, seed, d, a, b)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("%v seed %d: generator positions differ after %d draws", q.Rels, seed, draws)
	}
}

// checkMutations runs a chain of Mutate calls from a random tree for q, in
// ts's arena and on the heap reference with equally seeded generators, and
// fails on the first step whose outcome or tree differs, or if the
// generators end apart. Every tree of the chain stays live to its end, as
// the randomized planner's archive does, and must still equal its heap
// twin then: the arena must not have recycled a node a live tree holds.
// The chain starts over from the seed tree now and then, as the planner
// mutates any archived plan, not only the latest.
func checkMutations(t testing.TB, ts *optimizer.TreeScratch, q *plan.Query, seed int64, steps int) {
	t.Helper()
	defer ts.Reset()
	var hs optimizer.HeapScratch
	got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	a, errA := drawTree(ts, got, q)
	b, errB := hs.RandomTree(want, q)
	if !sameError(errA, errB) {
		t.Fatalf("%v seed %d: error %v, heap reference %v", q.Rels, seed, errA, errB)
	}
	if errA != nil {
		return
	}
	arena, heap := []*plan.Node{a}, []*plan.Node{b}
	for step := range steps {
		from := len(arena) - 1
		if step%5 == 4 {
			from = 0
		}
		a, okA := ts.Mutate(got, q.Schema, arena[from])
		b, okB := hs.Mutate(want, q.Schema, heap[from])
		if okA != okB {
			t.Fatalf("%v seed %d step %d: applicable %v, heap reference %v", q.Rels, seed, step, okA, okB)
		}
		if !okA {
			continue
		}
		if !sameTree(a, b) {
			t.Fatalf("%v seed %d step %d: tree\n%s\nheap reference\n%s", q.Rels, seed, step, a, b)
		}
		arena, heap = append(arena, a), append(heap, b)
	}
	for i := range arena {
		if !sameTree(arena[i], heap[i]) {
			t.Fatalf("%v seed %d: chain tree %d changed after later mutations:\n%s\nheap reference\n%s", q.Rels, seed, i, arena[i], heap[i])
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("%v seed %d: generator positions differ after %d mutations", q.Rels, seed, steps)
	}
}

// TestRandomTreeMatchesPairScan holds the adjacency-matrix random tree to
// the pair scan it replaced: over TPC-H and the 30- and 100-table random
// schemas, connected queries of 2 to 60 relations and disconnected ones,
// many seeds, one TreeScratch reused throughout (and reset once per
// query), the same trees, the same errors and the same generator position
// afterwards. The matrix is
// symmetric because Joinable is, which it asserts on every schema's scans.
func TestRandomTreeMatchesPairScan(t *testing.T) {
	schemas := enumSchemas(t)
	rng := rand.New(rand.NewSource(1906))
	var ts optimizer.TreeScratch
	for _, name := range []string{"tpch", "random30", "random100"} {
		s := schemas[name]
		var scans []*plan.Node
		for _, r := range s.Tables() {
			leaf, err := plan.NewScan(s, r)
			if err != nil {
				t.Fatal(err)
			}
			scans = append(scans, leaf)
		}
		for _, a := range scans {
			for _, b := range scans {
				if plan.Joinable(a, b) != plan.Joinable(b, a) {
					t.Fatalf("%s: Joinable(%s, %s) is not symmetric", name, a.Table, b.Table)
				}
			}
		}
		for k := 2; k <= min(60, s.NumTables()); k++ {
			q, err := workload.RandomQuery(rng, s, k)
			if err != nil {
				t.Fatal(err)
			}
			for seed := range int64(6) {
				if seed == 3 {
					// The same query again, in the recycled arena.
					ts.Reset()
				}
				checkRandomTrees(t, &ts, q, seed, 4)
			}
			disconnected := rawQuery(s, randomSubset(rng, s, k))
			checkRandomTrees(t, &ts, disconnected, int64(k), 4)
		}
	}
}

// TestMutateMatchesHeap holds the arena-built mutations to the heap-built
// ones they replaced: over TPC-H and the 30- and 100-table random schemas,
// connected queries of 2 to 60 relations, chains of mutations through one
// TreeScratch reused (and reset) throughout draw the same trees from the
// same generator positions, and none of them changes while the chain grows.
// A tree the scratch did not build, mutated through a fresh scratch each
// step, does the same.
func TestMutateMatchesHeap(t *testing.T) {
	schemas := enumSchemas(t)
	rng := rand.New(rand.NewSource(1994))
	var ts optimizer.TreeScratch
	for _, name := range []string{"tpch", "random30", "random100"} {
		s := schemas[name]
		for k := 2; k <= min(60, s.NumTables()); k++ {
			q, err := workload.RandomQuery(rng, s, k)
			if err != nil {
				t.Fatal(err)
			}
			for seed := range int64(3) {
				checkMutations(t, &ts, q, seed, 40)
			}
		}
	}
	q, err := workload.RandomQuery(rng, schemas["random100"], 30)
	if err != nil {
		t.Fatal(err)
	}
	var hs optimizer.HeapScratch
	root, err := hs.RandomTree(rand.New(rand.NewSource(5)), q)
	if err != nil {
		t.Fatal(err)
	}
	got, want := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
	for step := range 20 {
		a, okA := new(optimizer.TreeScratch).Mutate(got, q.Schema, root)
		b, okB := hs.Mutate(want, q.Schema, root)
		if okA != okB || okA && !sameTree(a, b) {
			t.Fatalf("fresh-scratch Mutate step %d: %v\n%s\nheap reference %v\n%s", step, okA, a, okB, b)
		}
	}
}

// TestRandomTreeAfterSchemaMutation: a query's planning form, its scans
// and their join graph, is keyed to the schema's index snapshot, so a tree
// drawn for the same *Query after AddTable shifted the ranks, through the
// same scratch, is drawn over a fresh form instead of joining stale scans.
func TestRandomTreeAfterSchemaMutation(t *testing.T) {
	s := catalog.TPCH(10)
	q, err := plan.NewQuery(s, s.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	var ts optimizer.TreeScratch
	checkRandomTrees(t, &ts, q, 1, 2)
	if err := s.AddTable(catalog.Table{Name: "aaa_first", Rows: 10, RowBytes: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddJoin("aaa_first", catalog.Region, 0.5); err != nil {
		t.Fatal(err)
	}
	tree, err := drawTree(&ts, rand.New(rand.NewSource(2)), q)
	if errors.Is(err, plan.ErrStaleSchema) {
		t.Fatalf("the tree joined scans from before the mutation: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(q); err != nil {
		t.Fatal(err)
	}
	checkRandomTrees(t, &ts, q, 3, 2)
}

// checkSelinger plans q with the Selinger DP and with the full sweep, each
// behind a fresh recording coster, and fails unless the two asked the
// coster the same questions about the same candidates in the same order and
// returned the same result or error. The costers are the size coster,
// which prices by the candidate's output and larger input, behind two
// scripts that refuse candidates and so leave subsets unplanned, then the
// joint coster over an empty nearest-neighbour cache, then the size coster
// alone. The DP plans one new Query under all four in turn: the first call
// builds the query's planning form in the pooled scratch, the second
// publishes it, and the later ones read it, so a schedule that kept only
// the subsets some call planned would miss subsets a later call plans. Up
// to optimizertest.MaxOptimumRelations relations, the size coster's DP
// cost is also optimizertest.Optimum's left-deep cost, bit for bit, and a
// query one fails the other fails.
func checkSelinger(t testing.TB, q *plan.Query) {
	t.Helper()
	sizeCoster := func(q *plan.Query) *recordingCoster {
		return &recordingCoster{q: q, inner: &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}}
	}
	shared := &plan.Query{Schema: q.Schema, Rels: q.Rels}
	for _, coster := range []func(*plan.Query) *recordingCoster{refusingSizeCoster(1), refusingSizeCoster(2), nnCoster, sizeCoster} {
		gotC, wantC := coster(q), coster(q)
		got, errG := (&selinger.Planner{Coster: gotC}).Plan(shared)
		want, errW := sweepSelinger(wantC, q)
		if !sameError(errG, errW) {
			t.Fatalf("%v: error %v, full sweep %v", q.Rels, errG, errW)
		}
		if !slices.Equal(gotC.calls, wantC.calls) {
			i := 0
			for i < min(len(gotC.calls), len(wantC.calls)) && gotC.calls[i] == wantC.calls[i] {
				i++
			}
			t.Fatalf("%v: %d costing calls differ from the full sweep's %d, first at call %d", q.Rels, len(gotC.calls), len(wantC.calls), i)
		}
		if errG == nil {
			sameResult(t, q, got, want)
		}
	}
	if len(q.Rels) <= optimizertest.MaxOptimumRelations {
		got, errG := (&selinger.Planner{Coster: sizeCoster(q)}).Plan(q)
		_, want, errO := optimizertest.Optimum(sizeCoster(q), q)
		if (errG == nil) != (errO == nil) || errG == nil && math.Float64bits(got.Cost.Seconds) != math.Float64bits(want.Cost.Seconds) {
			t.Fatalf("%v: DP %+v (error %v), left-deep optimum %+v (error %v)", q.Rels, got, errG, want, errO)
		}
	}
}

// sameResult fails unless two planning results are the same joint plan at
// the same cost, bit for bit, after pricing the same number of plans.
func sameResult(t testing.TB, q *plan.Query, got, want *optimizer.Result) {
	t.Helper()
	if !got.Plan.Equal(want.Plan) || !sameTree(got.Plan, want.Plan) {
		t.Fatalf("%v: plan\n%s\nfull sweep\n%s", q.Rels, got.Plan, want.Plan)
	}
	if math.Float64bits(got.Cost.Seconds) != math.Float64bits(want.Cost.Seconds) ||
		math.Float64bits(float64(got.Cost.Money)) != math.Float64bits(float64(want.Cost.Money)) {
		t.Fatalf("%v: cost %+v, full sweep %+v", q.Rels, got.Cost, want.Cost)
	}
	if got.PlansConsidered != want.PlansConsidered {
		t.Fatalf("%v: %d plans considered, full sweep %d", q.Rels, got.PlansConsidered, want.PlansConsidered)
	}
}

// cliqueSchema is an n-table schema whose join graph is complete, with a
// selectivity on every edge that no binary fraction spells (1/3, 1/5,
// 1/7, …): a leaf joins every member of any left input, so the DP folds
// three or more selectivities per split of a subset of four or more, and
// a fold in another order than CrossSelectivity's gives other bits.
func cliqueSchema(t testing.TB, n int) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("k%02d", i)
		if err := s.AddTable(catalog.Table{Name: names[i], Rows: 1_000_003 * int64(1+i*i), RowBytes: 40 + 13*i}); err != nil {
			t.Fatal(err)
		}
	}
	edge := 0
	for i := range names {
		for j := i + 1; j < n; j++ {
			if err := s.AddJoin(names[i], names[j], 1/float64(3+2*edge)); err != nil {
				t.Fatal(err)
			}
			edge++
		}
	}
	return s
}

// TestSelingerMatchesFullSweep holds the connected-subset DP to the full
// mask sweep it replaced. A recording coster over a real nearest-neighbour
// cache must see the identical call sequence — its answers depend on that
// order — and the plans (resources included), costs and PlansConsidered
// must match bit for bit. Queries: TPC-H's, connected ones of 2 to 12
// relations on the random schemas, a 6-relation clique, one of the DP's
// largest, selinger.MaxRelations, and disconnected ones, which must fail
// with the same error.
func TestSelingerMatchesFullSweep(t *testing.T) {
	schemas := enumSchemas(t)
	rng := rand.New(rand.NewSource(1979))
	var queries []*plan.Query
	tpch := schemas["tpch"]
	for _, name := range workload.QueryNames {
		q, err := workload.TPCHQuery(tpch, name)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	queries = append(queries,
		rawQuery(tpch, []string{catalog.Lineitem, catalog.Region}),
		rawQuery(tpch, []string{catalog.Customer, catalog.Nation, catalog.Region, catalog.Part, catalog.PartSupp}))
	for _, name := range []string{"random30", "random100"} {
		s := schemas[name]
		for k := 2; k <= 12; k++ {
			q, err := workload.RandomQuery(rng, s, k)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, q, rawQuery(s, randomSubset(rng, s, k)))
		}
	}
	clique := cliqueSchema(t, 6)
	queries = append(queries, rawQuery(clique, clique.Tables()))
	big, err := workload.RandomQuery(rng, schemas["random30"], selinger.MaxRelations)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, big)

	for _, q := range queries {
		checkSelinger(t, q)
	}
}

// fuzzInput hands out a fuzz input byte by byte, zeros once it runs out.
type fuzzInput []byte

func (b *fuzzInput) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzEnumeration decodes a join graph of 2 to 72 tables — past one
// 64-bit row word — whose name order differs from their insertion order,
// with up to three edges per table and so often disconnected, and a query
// over it that NewQuery has not vetted. Selectivities are k/257, not
// binary fractions, so a product of three or more of them has bits that
// depend on the order of its fold (the clique seeds meet that). The
// random tree must match the pair scan draw for draw, a chain of
// mutations from one must match the heap-built reference step for step
// and, up to 12 relations, the Selinger DP must match the full sweep call
// for call. The seed corpus (below and
// under testdata/fuzz) runs under plain `go test`.
func FuzzEnumeration(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the join graph"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
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
			if err := s.AddJoin(names[a], names[b], float64(1+in.next())/257); err != nil {
				t.Fatal(err)
			}
		}
		var rels []string
		for _, name := range names {
			if in.next()%2 == 1 {
				rels = append(rels, name)
			}
		}
		if len(rels) == 0 {
			rels = names[:1]
		}
		q := rawQuery(s, rels)
		var ts optimizer.TreeScratch
		seed := int64(in.next())
		checkRandomTrees(t, &ts, q, seed, 3)
		checkMutations(t, &ts, q, seed, 1+in.next()%40)
		if len(q.Rels) <= 12 {
			checkSelinger(t, q)
		}
	})
}
