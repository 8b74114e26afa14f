package resource

import (
	"sync"
	"testing"

	"raqo/internal/cluster"
	"raqo/internal/cost"
)

func TestCacheStatsSnapshot(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: NearestNeighbor, ThresholdGB: 0.5}
	m := cost.PaperSMJ()
	cond := cluster.Default()

	if _, err := c.Plan(m, 2.0, cond); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := c.Plan(m, 2.0, cond); err != nil { // exact hit
		t.Fatal(err)
	}
	if _, err := c.Plan(m, 2.3, cond); err != nil { // nearest-neighbor hit
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss and 2 hits", st)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if st.Evictions != 0 || st.Generation != 0 {
		t.Fatalf("unexpected evictions/generation in %+v", st)
	}

	c.Reset()
	st = c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions after Reset = %d, want 1", st.Evictions)
	}
	if st.Generation != 1 {
		t.Fatalf("generation after Reset = %d, want 1", st.Generation)
	}
	if st.Entries != 0 {
		t.Fatalf("entries after Reset = %d, want 0", st.Entries)
	}
}

func TestCacheStatsCountsDedupedLoads(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: Exact}
	m := cost.PaperSMJ()
	cond := cluster.Default()

	const workers = 8
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			if _, err := c.Plan(m, 3.7, cond); err != nil {
				t.Error(err)
			}
		}()
	}
	start.Done()
	wg.Wait()

	st := c.Stats()
	// The first caller to take the lock plans and inserts; every later
	// one finds its entry.
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, workers-1)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}
