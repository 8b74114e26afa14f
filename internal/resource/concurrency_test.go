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

// TestCacheResetDuringPlan: Reset racing with in-flight Plans must never
// deadlock, lose waiters, or let a pre-Reset result sneak into the new
// generation's index (the generation invariant on Cache).
func TestCacheResetDuringPlan(t *testing.T) {
	inner := &slowPlanner{delay: 100 * time.Microsecond}
	c := &Cache{Inner: inner}
	m := quadModel(3, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Reset()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// After the dust settles the cache still works and repopulates.
	c.Reset()
	if _, err := c.Plan(m, 1, cond()); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1 {
		t.Errorf("size after quiesced insert = %d, want 1", c.Size())
	}
}

// TestCacheResetDropsStaleInsert pins the generation invariant precisely: a
// Reset issued while a miss is in flight must keep that miss's result out
// of the index, while its callers still receive it.
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
	c.Reset() // lands mid-flight: the leader's insert must be discarded
	close(release)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if r.IsZero() {
		t.Error("in-flight caller should still receive the computed result")
	}
	if c.Size() != 0 {
		t.Errorf("stale insert landed: size = %d, want 0", c.Size())
	}
	if c.Misses() != 1 {
		t.Errorf("misses = %d, want 1", c.Misses())
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
