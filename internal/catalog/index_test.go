package catalog

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"raqo/internal/units"
)

// refConnected is Connected as it was before the join-graph index: a
// traversal over the string-keyed edge maps. Connected is held to it.
func refConnected(s *Schema, tables []string) bool {
	if len(tables) == 0 {
		return false
	}
	want := make(map[string]bool, len(tables))
	for _, t := range tables {
		if _, ok := s.tables[t]; !ok {
			return false
		}
		want[t] = true
	}
	seen := map[string]bool{tables[0]: true}
	stack := []string{tables[0]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range s.Neighbors(cur) {
			if want[n] && !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(seen) == len(want)
}

// TestConnectedMatchesReference: over a 100-table random schema (two
// bitset words), uniformly drawn table sets — mostly disconnected — and
// sets grown along edges — connected — get the reference's verdict.
func TestConnectedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(715))
	s, err := Random(rng, 100, DefaultRandomConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := s.Tables()
	verdicts := map[bool]int{}
	for round := 0; round < 2000; round++ {
		set := []string{names[rng.Intn(len(names))]}
		for size := rng.Intn(12); size > 0; size-- {
			from := names
			if round%2 == 0 { // grow along an edge of a random member
				from = s.Neighbors(set[rng.Intn(len(set))])
			}
			set = append(set, from[rng.Intn(len(from))]) // duplicates allowed
		}
		got, want := s.Connected(set), refConnected(s, set)
		if got != want {
			t.Fatalf("Connected(%v) = %v, reference %v", set, got, want)
		}
		verdicts[got]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("one-sided verdicts: %v", verdicts)
	}
	if s.Connected(append(names[:1:1], "ghost")) {
		t.Error("set with an unknown table reported connected")
	}
}

// TestIndexFollowsMutations: after each kind of mutation — AddTable at a
// rank below existing ones, AddJoin, SetTableSize — and on a Clone, the
// index is the one a schema built fresh in that final form has, although
// an earlier index had been derived (and handed out) before the mutation.
func TestIndexFollowsMutations(t *testing.T) {
	const resized = 3400 * units.MB
	s := TPCH(100)
	before := s.Index()

	step := func(name string, mutate func(*Schema) error) {
		t.Helper()
		if err := mutate(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The string-keyed maps are the schema's truth: a schema built from
		// them, in final form, derives its index once, from nothing.
		fresh := NewSchema()
		for _, n := range s.Tables() {
			if err := fresh.AddTable(s.MustTable(n)); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range s.Edges() {
			if err := fresh.AddJoin(e.A, e.B, e.Selectivity); err != nil {
				t.Fatal(err)
			}
		}
		for label, got := range map[string]*Index{"mutated": s.Index(), "cloned": s.Clone().Index()} {
			if !reflect.DeepEqual(got, fresh.Index()) {
				t.Errorf("after %s: %s schema's index differs from a fresh build's\n got %+v\nwant %+v", name, label, got, fresh.Index())
			}
		}
	}
	step("AddTable", func(s *Schema) error {
		return s.AddTable(Table{Name: "aaa_first", Rows: 1000, RowBytes: 50})
	})
	step("AddJoin", func(s *Schema) error { return s.AddJoin("aaa_first", Orders, 0.001) })
	step("SetTableSize", func(s *Schema) error { return s.SetTableSize(Orders, resized) })

	if s.Index() == before {
		t.Error("index identity survived three mutations")
	}
	if again := s.Index(); again != s.Index() {
		t.Error("unmutated schema handed out two indexes")
	}
	if before.Rank(Orders) == s.Index().Rank(Orders) {
		t.Error("AddTable below orders did not shift its rank")
	}
}

// TestIndexConcurrentFirstUse: planners on several goroutines share one
// schema, and the first of them to plan derives its index. All must end up
// with the same one — it is the generation stamp their nodes compare.
func TestIndexConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := TPCH(100)
		got := make([]*Index, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = s.Index()
			}(i)
		}
		wg.Wait()
		for i := range got {
			if got[i] == nil || got[i] != got[0] {
				t.Fatalf("round %d: goroutine %d got index %p, goroutine 0 %p", round, i, got[i], got[0])
			}
		}
	}
}
