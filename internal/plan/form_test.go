package plan_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/optimizertest"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/optimizer/selinger"
	"raqo/internal/plan"
	"raqo/internal/workload"
)

// rawQuery is a query over rels, sorted, that skips NewQuery's
// connectivity check, so the form is also derived for disconnected ones.
func rawQuery(s *catalog.Schema, rels []string) *plan.Query {
	rels = slices.Clone(rels)
	sort.Strings(rels)
	return &plan.Query{Schema: s, Rels: rels}
}

// formQueries returns connected and disconnected queries over TPC-H and
// the 30- and 100-table random schemas, 1 to 100 relations: past one
// 64-bit graph row, and past ScheduleMax.
func formQueries(t *testing.T) []*plan.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(1906))
	tpch := catalog.TPCH(100)
	out := []*plan.Query{
		rawQuery(tpch, tpch.Tables()),
		rawQuery(tpch, []string{catalog.Lineitem}),
		rawQuery(tpch, []string{catalog.Customer, catalog.Nation, catalog.Part, catalog.PartSupp}),
	}
	for _, n := range []int{30, 100} {
		s, err := catalog.Random(rng, n, catalog.DefaultRandomConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 5, 9, 12, 16, 17, 18, 30, 70, 100} {
			if k > n {
				continue
			}
			q, err := workload.RandomQuery(rng, s, k)
			if err != nil {
				t.Fatal(err)
			}
			tables := s.Tables()
			rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
			out = append(out, q, rawQuery(s, tables[:k]))
		}
	}
	return out
}

// checkForm fails unless f is q's form at the schema's current index, as
// derived per call: every leaf is NewScan's scan of its relation, at its
// table's rank; graph row i holds Joinable(leaf i, leaf j) for every j;
// Cross of one neighbour is the edge's Selectivity and of a random set of
// neighbours is CrossSelectivity's fold; and the schedule is every
// connected subset of two or more leaves by size and then mask, or empty
// past ScheduleMax leaves.
func checkForm(t *testing.T, q *plan.Query, f *plan.Form, rng *rand.Rand) {
	t.Helper()
	g := q.Schema.Index()
	n := len(q.Rels)
	if f.Len() != n || f.Schema() != q.Schema {
		t.Fatalf("%v: form of %d leaves over %p, want %d over %p", q.Rels, f.Len(), f.Schema(), n, q.Schema)
	}
	scans := make([]*plan.Node, n)
	for i, r := range q.Rels {
		scan, err := plan.NewScan(q.Schema, r)
		if err != nil {
			t.Fatal(err)
		}
		scans[i] = scan
		leaf := f.Leaf(i)
		if leaf.Table != r || f.Rank(i) != g.Rank(r) ||
			math.Float64bits(leaf.Rows()) != math.Float64bits(scan.Rows()) || leaf.Bytes() != scan.Bytes() ||
			!slices.Equal(leaf.AppendSets(nil), scan.AppendSets(nil)) || leaf.Validate(rawQuery(q.Schema, []string{r})) != nil {
			t.Fatalf("%v: leaf %d is %s at rank %d, NewScan's is %s at rank %d", q.Rels, i, leaf.Table, f.Rank(i), r, g.Rank(r))
		}
	}
	w := (n + 63) / 64
	graph := f.Graph()
	if len(graph) != n*w {
		t.Fatalf("%v: graph of %d words, want %d", q.Rels, len(graph), n*w)
	}
	for i := range n {
		for j := range n {
			want := i != j && plan.Joinable(scans[i], scans[j])
			if got := graph[i*w+j/64]&(1<<(j%64)) != 0; got != want {
				t.Fatalf("%v: graph[%d][%d] = %v, Joinable %v", q.Rels, i, j, got, want)
			}
		}
	}
	if n <= 64 {
		for i := range n {
			row := graph[i]
			for x := row; x != 0; x &= x - 1 {
				l := bits.TrailingZeros64(x)
				want, _ := g.Selectivity(g.Rank(q.Rels[l]), g.Rank(q.Rels[i]))
				if got := f.Cross(i, 1<<l); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v: Cross(%d, {%d}) = %v, Selectivity %v", q.Rels, i, l, got, want)
				}
			}
			// A left side of random neighbours of leaf i and random
			// leaves that are not, which add no crossing edge.
			for range 4 {
				nbr := row & rng.Uint64()
				left := make([]uint64, g.Words())
				for x := nbr | rng.Uint64()&(1<<n-1)&^row&^(1<<i); x != 0; x &= x - 1 {
					rank := f.Rank(bits.TrailingZeros64(x))
					left[rank/64] |= 1 << (rank % 64)
				}
				right := scans[i].AppendSets(nil)
				h := len(right) / 2
				want, _ := g.CrossSelectivity(left, right[:h], right[h:])
				if got := f.Cross(i, nbr); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v: Cross(%d, %b) = %v, CrossSelectivity %v", q.Rels, i, nbr, got, want)
				}
			}
		}
	}
	masks := f.Schedule()
	if n > plan.ScheduleMax {
		if len(masks) != 0 {
			t.Fatalf("%v: schedule of %d masks kept for %d leaves", q.Rels, len(masks), n)
		}
		return
	}
	if want := connectedSubsets(graph, n); !slices.Equal(masks, want) {
		t.Fatalf("%v: schedule of %d masks, want the %d connected subsets", q.Rels, len(masks), len(want))
	}
}

// connectedSubsets lists every subset of two or more of n leaves that the
// one-word-row graph connects, by size and then ascending mask, testing
// each of the 2^n masks by a search from its lowest member.
func connectedSubsets(graph []uint64, n int) []uint32 {
	var out []uint32
	for size := 2; size <= n; size++ {
		for m := uint32(1); m < 1<<n; m++ {
			if bits.OnesCount32(m) != size {
				continue
			}
			seen := m & -m
			for grew := true; grew; {
				grew = false
				for x := seen; x != 0; x &= x - 1 {
					if more := uint32(graph[bits.TrailingZeros32(x)]) & m &^ seen; more != 0 {
						seen |= more
						grew = true
					}
				}
			}
			if seen == m {
				out = append(out, m)
			}
		}
	}
	return out
}

// TestFormMatchesPerCallBuild holds the planning form to the per-call
// derivation it replaced, on connected and disconnected queries of 1 to
// 100 relations: the form a first planning builds in a scratch, the one
// the second publishes, and a scratch rebuilt for another query.
func TestFormMatchesPerCallBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1979))
	var scratch plan.Form
	for _, q := range formQueries(t) {
		first, err := q.Form(&scratch)
		if err != nil {
			t.Fatal(err)
		}
		if first != &scratch {
			t.Fatalf("%v: a first planning got a form of its own", q.Rels)
		}
		checkForm(t, q, first, rng)
		published, err := q.Form(&scratch)
		if err != nil {
			t.Fatal(err)
		}
		if published == &scratch {
			t.Fatalf("%v: a second planning got the scratch", q.Rels)
		}
		checkForm(t, q, published, rng)
		if again, err := q.Form(nil); err != nil || again != published {
			t.Fatalf("%v: the published form was not reused: %p, %v", q.Rels, again, err)
		}
	}
	if _, err := rawQuery(catalog.TPCH(1), []string{"ghost"}).Form(nil); err == nil {
		t.Error("a form over an unknown relation")
	}
}

// TestFormAfterAddTable: a form is keyed to the schema's index snapshot,
// so after an AddTable that shifts every rank the same Query gets a fresh
// form over the new ranks, and the old one is left as it was.
func TestFormAfterAddTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := catalog.TPCH(10)
	q, err := plan.NewQuery(s, s.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	old, err := q.Form(nil)
	if err != nil {
		t.Fatal(err)
	}
	rank := old.Rank(0)
	if err := s.AddTable(catalog.Table{Name: "aaa_first", Rows: 10, RowBytes: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddJoin("aaa_first", catalog.Region, 0.5); err != nil {
		t.Fatal(err)
	}
	f, err := q.Form(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f == old || old.Rank(0) != rank || f.Rank(0) != rank+1 {
		t.Fatalf("after AddTable: same form %v, old rank %d (was %d), new rank %d", f == old, old.Rank(0), rank, f.Rank(0))
	}
	checkForm(t, q, f, rng)
	if _, err := plan.NewJoin(s, plan.SMJ, old.Leaf(0), old.Leaf(1)); err == nil {
		t.Error("the stale form's leaves joined under the new index")
	}
}

// TestFormConcurrentPlanning: 8 goroutines plan one new Query at once,
// each with the Selinger DP and the randomized search, so their first
// calls race to build and publish its form; every result is the one a
// Query planned alone gets. Under -race, nothing races.
func TestFormConcurrentPlanning(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := catalog.Random(rng, 30, catalog.DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	plans := func(q *plan.Query) ([2]*optimizer.Result, error) {
		var out [2]*optimizer.Result
		planners := []optimizer.Planner{
			&selinger.Planner{Coster: &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}},
			&randomized.Planner{Coster: &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}, Seed: 5},
		}
		for i, p := range planners {
			res, err := p.Plan(q)
			if err != nil {
				return out, err
			}
			out[i] = res
		}
		return out, nil
	}
	for _, k := range []int{3, 8, 12, plan.ScheduleMax} {
		base, err := workload.RandomQuery(rng, s, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plans(&plan.Query{Schema: s, Rels: base.Rels})
		if err != nil {
			t.Fatal(err)
		}
		shared := &plan.Query{Schema: s, Rels: base.Rels}
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, 8)
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for range 3 {
					got, err := plans(shared)
					if err != nil {
						errs <- err
						return
					}
					for i := range got {
						if !got[i].Plan.Equal(want[i].Plan) || got[i].Cost != want[i].Cost || got[i].PlansConsidered != want[i].PlansConsidered {
							errs <- fmt.Errorf("%v planner %d: %s at %+v, alone %s at %+v", shared.Rels, i,
								got[i].Plan.SignatureWithResources(), got[i].Cost, want[i].Plan.SignatureWithResources(), want[i].Cost)
							return
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
