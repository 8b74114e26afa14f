package resource

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
)

// slowPlanner counts how many times its inner planning actually runs and
// holds each run open long enough for concurrent misses to pile up.
type slowPlanner struct {
	runs  atomic.Int64
	delay time.Duration
}

func (s *slowPlanner) Plan(m cost.Model, ssGB float64, c cluster.Conditions) (plan.Resources, error) {
	s.runs.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return plan.Resources{Containers: 10, ContainerGB: 3}, nil
}

func (s *slowPlanner) Evaluations() int64 { return s.runs.Load() }

// TestCacheSingleflight: concurrent misses on one key must run the inner
// planner exactly once; everyone else waits and shares the leader's result.
func TestCacheSingleflight(t *testing.T) {
	inner := &slowPlanner{delay: 5 * time.Millisecond}
	c := &Cache{Inner: inner}
	m := quadModel(1, 1)
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]plan.Resources, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = c.Plan(m, 2.5, cond())
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if results[g] != results[0] {
			t.Errorf("goroutine %d got %v, leader got %v", g, results[g], results[0])
		}
	}
	if n := inner.runs.Load(); n != 1 {
		t.Errorf("inner planner ran %d times, want exactly 1", n)
	}
	if c.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (coalesced misses count as hits)", c.Misses())
	}
	if c.Hits() != goroutines-1 {
		t.Errorf("hits = %d, want %d", c.Hits(), goroutines-1)
	}
}

// TestCacheResetRacesPlans: goroutines plan while one goroutine resets k
// times. The run finishes, Generation counts the k Resets, and in Exact
// mode every planned entry is either still cached or was evicted by a
// Reset: Entries + Evictions == Misses.
func TestCacheResetRacesPlans(t *testing.T) {
	const resets = 200
	inner := &slowPlanner{delay: 100 * time.Microsecond}
	c := &Cache{Inner: inner, Mode: Exact}
	m := quadModel(3, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Plan(m, float64(i%8), cond()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < resets; i++ {
		c.Reset()
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	st := c.Stats()
	if st.Generation != resets {
		t.Errorf("generation = %d, want %d", st.Generation, resets)
	}
	if int64(st.Entries)+st.Evictions != st.Misses {
		t.Errorf("entries %d + evictions %d != misses %d", st.Entries, st.Evictions, st.Misses)
	}
	if n := inner.runs.Load(); n != st.Misses {
		t.Errorf("inner planner ran %d times for %d misses", n, st.Misses)
	}
}

// TestCacheResetDropsStaleInsert: a Reset issued while a miss is in flight
// waits for that miss, so the miss's result reaches its caller but not the
// index the Reset leaves behind.
func TestCacheResetDropsStaleInsert(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	inner := &gatedPlanner{started: started, release: release}
	c := &Cache{Inner: inner}
	m := quadModel(1, 1)

	var r plan.Resources
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err = c.Plan(m, 4, cond())
	}()
	<-started
	reset := make(chan struct{})
	go func() {
		defer close(reset)
		c.Reset() // lands mid-flight: it must wait for the miss's insert
	}()
	select {
	case <-reset:
		t.Fatal("Reset returned while a miss held the cache")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-done
	<-reset
	if err != nil {
		t.Fatal(err)
	}
	if r.IsZero() {
		t.Error("in-flight caller should still receive the computed result")
	}
	if c.Size() != 0 {
		t.Errorf("stale insert survived the Reset: size = %d, want 0", c.Size())
	}
	if st := c.Stats(); st.Misses != 1 || st.Evictions != 1 || st.Generation != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 eviction, generation 1", st)
	}
}

type gatedPlanner struct {
	started chan struct{}
	release chan struct{}
	runs    atomic.Int64
}

func (g *gatedPlanner) Plan(m cost.Model, ssGB float64, c cluster.Conditions) (plan.Resources, error) {
	if g.runs.Add(1) == 1 {
		close(g.started)
		<-g.release
	}
	return plan.Resources{Containers: 5, ContainerGB: 2}, nil
}

func (g *gatedPlanner) Evaluations() int64 { return g.runs.Load() }

// TestCacheCrossBucketLookup: approximate matches must be found when the
// probe key and the cached key sit on opposite sides of a whole-GB value.
func TestCacheCrossBucketLookup(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: NearestNeighbor, ThresholdGB: 0.4}
	m := quadModel(5, 1)
	// 1.9 and 2.1 are 0.2 < ThresholdGB apart.
	if _, err := c.Plan(m, 1.9, cond()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan(m, 2.1, cond()); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 1 {
		t.Errorf("hits = %d, want 1 (nearest-neighbor match across 2 GB)", c.Hits())
	}
}
