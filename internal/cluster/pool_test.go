package cluster

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestPoolAllocateRelease(t *testing.T) {
	p, err := NewPool(10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Capacity(0) != 10 || p.Free(0) != 10 || p.InUse(0) != 0 || p.Running() != 0 {
		t.Fatalf("fresh pool state: free=%d inuse=%d running=%d", p.Free(0), p.InUse(0), p.Running())
	}
	if _, ok := p.NextFinish(); ok {
		t.Fatal("idle pool reports a next finish")
	}

	tok1, err := p.Allocate(0, 4, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	tok2, err := p.Allocate(0, 6, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tok1 == tok2 {
		t.Fatal("allocation tokens must be distinct")
	}
	if p.Free(0) != 0 || p.InUse(0) != 10 || p.Running() != 2 {
		t.Fatalf("after allocations: free=%d inuse=%d running=%d", p.Free(0), p.InUse(0), p.Running())
	}
	if got, want := p.HeldGB(0), 4*8.0+6*2.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("held GB %g, want %g", got, want)
	}
	if f, ok := p.NextFinish(); !ok || f != 5 {
		t.Fatalf("next finish %g ok=%v, want 5", f, ok)
	}

	rel := p.Advance(7)
	if len(rel) != 1 || rel[0].Token != tok2 || rel[0].Containers != 6 || rel[0].Finish != 5 {
		t.Fatalf("advance(7) releases %+v", rel)
	}
	if p.Now() != 7 || p.Free(0) != 6 {
		t.Fatalf("after advance: now=%g free=%d", p.Now(), p.Free(0))
	}

	// Advancing backwards is a no-op on the clock.
	if p.Advance(3); p.Now() != 7 {
		t.Fatalf("clock moved backwards to %g", p.Now())
	}

	rel = p.Advance(10) // inclusive release at finish == t
	if len(rel) != 1 || rel[0].Token != tok1 {
		t.Fatalf("advance(10) releases %+v", rel)
	}
	if p.Free(0) != 10 || p.Running() != 0 || p.HeldGB(0) != 0 {
		t.Fatalf("drained pool: free=%d running=%d heldGB=%g", p.Free(0), p.Running(), p.HeldGB(0))
	}
}

func TestPoolAllocateErrors(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	p, _ := NewPool(4)
	if _, err := p.Allocate(0, 0, 1, 1); err == nil {
		t.Fatal("zero-container gang accepted")
	}
	if _, err := p.Allocate(0, 5, 1, 1); err == nil {
		t.Fatal("gang larger than free accepted")
	}
	if _, err := p.Allocate(0, 1, -1, 1); err == nil {
		t.Fatal("negative GB accepted")
	}
	p.Advance(10)
	if _, err := p.Allocate(0, 1, 1, 9); err == nil {
		t.Fatal("finish before now accepted")
	}
	// Exactly-now finish and exactly-free gang are both legal boundaries.
	if _, err := p.Allocate(0, 4, 1, 10); err != nil {
		t.Fatalf("boundary allocation rejected: %v", err)
	}
}

func TestPoolTiedFinishReleaseOrder(t *testing.T) {
	p, _ := NewPool(10)
	var toks []int64
	for i := 0; i < 5; i++ {
		tok, err := p.Allocate(0, 1, 1, 3) // all finish at the same instant
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
	rel := p.Advance(3)
	if len(rel) != 5 {
		t.Fatalf("released %d, want 5", len(rel))
	}
	for i, r := range rel {
		if r.Token != toks[i] {
			t.Fatalf("tied finishes released out of allocation order: %v", rel)
		}
	}
}

func TestPoolConditions(t *testing.T) {
	base := Default() // containers [1..100], sizes [1..10]GB
	p, _ := NewPool(100)

	cond, ok := p.Conditions(0, base)
	if !ok || cond != base {
		t.Fatalf("idle pool conditions %+v ok=%v, want base", cond, ok)
	}

	if _, err := p.Allocate(0, 60, 10, 50); err != nil {
		t.Fatal(err)
	}
	cond, ok = p.Conditions(0, base)
	if !ok || cond.MaxContainers != 40 || cond.MinContainers != base.MinContainers {
		t.Fatalf("occupied pool conditions %+v ok=%v", cond, ok)
	}
	if cond.MaxContainerGB != base.MaxContainerGB {
		t.Fatalf("memory axis must be untouched: %+v", cond)
	}

	// Drop below the base minimum: no admissible resource point remains.
	if _, err := p.Allocate(0, 40, 10, 50); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Conditions(0, base); ok {
		t.Fatalf("free=%d below min %d should yield no conditions", p.Free(0), base.MinContainers)
	}

	// At t=50 everything has finished.
	p.Advance(50)
	cond, ok = p.Conditions(0, base)
	if !ok || cond != base {
		t.Fatalf("post-finish conditions %+v ok=%v, want base", cond, ok)
	}
}

// conditionsAt replays the trace up to virtual time t on Run's occupancy
// model and derives the conditions the pool could offer then: base with
// the container axis capped at the free count, ok false when fewer than
// base.MinContainers are free.
func conditionsAt(s *Simulator, jobs []Job, t float64, base Conditions) (Conditions, bool, error) {
	_, pool, err := s.run(jobs, t)
	if err != nil {
		return Conditions{}, false, err
	}
	pool.Advance(t)
	cond, ok := pool.Conditions(0, base)
	return cond, ok, nil
}

func TestSimulatorConditionsAt(t *testing.T) {
	s := &Simulator{Capacity: 10}
	base := Conditions{
		MinContainers: 1, MaxContainers: 10, ContainerStep: 1,
		MinContainerGB: 1, MaxContainerGB: 4, GBStep: 1,
	}
	jobs := []Job{
		{ID: 0, Arrival: 0, Containers: 6, Duration: 10},
		{ID: 1, Arrival: 2, Containers: 6, Duration: 10}, // queues until t=10
		{ID: 2, Arrival: 3, Containers: 3, Duration: 4},  // blocked behind job 1 (FIFO)
	}

	// Before any arrival: fully free.
	cond, ok, err := conditionsAt(s, jobs, -1, base)
	if err != nil || !ok || cond.MaxContainers != 10 {
		t.Fatalf("pre-trace: %+v ok=%v err=%v", cond, ok, err)
	}
	// Mid-trace: job 0 holds 6, jobs 1 and 2 queued.
	cond, ok, err = conditionsAt(s, jobs, 5, base)
	if err != nil || !ok || cond.MaxContainers != 4 {
		t.Fatalf("mid-trace: %+v ok=%v err=%v", cond, ok, err)
	}
	// At t=10 job 0 finishes and job 1 (then 2) admit: 6+3 held.
	cond, ok, err = conditionsAt(s, jobs, 10, base)
	if err != nil || !ok || cond.MaxContainers != 1 {
		t.Fatalf("at first finish: %+v ok=%v err=%v", cond, ok, err)
	}
	// Past the whole trace: free again.
	cond, ok, err = conditionsAt(s, jobs, 1e6, base)
	if err != nil || !ok || cond != base {
		t.Fatalf("post-trace: %+v ok=%v err=%v", cond, ok, err)
	}

	// ok=false when free drops under the base minimum.
	tight := base
	tight.MinContainers = 5
	if _, ok, err := conditionsAt(s, jobs, 5, tight); err != nil || ok {
		t.Fatalf("free=4 under min=5 should not be ok (err=%v)", err)
	}

	// Validation errors propagate.
	bad := []Job{{ID: 0, Arrival: 0, Containers: 99, Duration: 1}}
	if _, _, err := conditionsAt(s, bad, 0, base); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestPoolRevoke(t *testing.T) {
	p, _ := NewPool(10)
	tok1, _ := p.Allocate(0, 4, 8, 10)
	tok2, _ := p.Allocate(0, 6, 2, 20)

	rel, ok := p.Revoke(tok1)
	if !ok || rel.Token != tok1 || rel.Containers != 4 || rel.Finish != 10 {
		t.Fatalf("revoke(tok1) = %+v ok=%v", rel, ok)
	}
	if p.Free(0) != 4 || p.Running() != 1 {
		t.Fatalf("after revoke: free=%d running=%d", p.Free(0), p.Running())
	}
	if got, want := p.HeldGB(0), 6*2.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("held GB %g, want %g", got, want)
	}
	// Double-revoke and unknown tokens report ok=false.
	if _, ok := p.Revoke(tok1); ok {
		t.Fatal("double revoke succeeded")
	}
	if _, ok := p.Revoke(999); ok {
		t.Fatal("unknown token revoked")
	}
	// The survivor still releases normally.
	out := p.Advance(20)
	if len(out) != 1 || out[0].Token != tok2 {
		t.Fatalf("advance after revoke releases %+v", out)
	}
	if p.Free(0) != 10 || p.HeldGB(0) != 0 {
		t.Fatalf("drained pool: free=%d heldGB=%g", p.Free(0), p.HeldGB(0))
	}
}

// TestPoolFinishRevokeSameInstant pins the tie-break when a preemption
// lands at exactly an allocation's finish time: advancing to that instant
// releases the allocation first, so the revoke finds nothing — finish wins.
func TestPoolFinishRevokeSameInstant(t *testing.T) {
	p, _ := NewPool(4)
	tok, _ := p.Allocate(0, 4, 1, 5)
	rel := p.Advance(5)
	if len(rel) != 1 || rel[0].Token != tok {
		t.Fatalf("advance(5) releases %+v", rel)
	}
	if _, ok := p.Revoke(tok); ok {
		t.Fatal("revoke at the finish instant must lose to the release")
	}
	// Without the advance, a revoke at the same virtual instant wins:
	// the caller chose not to process the finish first.
	tok2, _ := p.Allocate(0, 2, 1, 5)
	if rel, ok := p.Revoke(tok2); !ok || rel.Token != tok2 {
		t.Fatalf("revoke before advancing = %+v ok=%v", rel, ok)
	}
}

// TestPoolAdvanceToExactNextFinish pins the inclusive boundary: advancing
// to exactly NextFinish releases that allocation (finish <= now), and
// NextFinish then reports the next outstanding one.
func TestPoolAdvanceToExactNextFinish(t *testing.T) {
	p, _ := NewPool(10)
	tokA, _ := p.Allocate(0, 3, 1, 7)
	if _, err := p.Allocate(0, 3, 1, 11); err != nil {
		t.Fatal(err)
	}
	f, ok := p.NextFinish()
	if !ok || f != 7 {
		t.Fatalf("NextFinish = %g ok=%v, want 7", f, ok)
	}
	rel := p.Advance(f)
	if len(rel) != 1 || rel[0].Token != tokA {
		t.Fatalf("advance(NextFinish) releases %+v", rel)
	}
	if p.Now() != 7 {
		t.Fatalf("now = %g, want 7", p.Now())
	}
	if f, ok = p.NextFinish(); !ok || f != 11 {
		t.Fatalf("next NextFinish = %g ok=%v, want 11", f, ok)
	}
}

// TestPoolConditionsAtZeroFree pins the empty-resource-space answer when
// every container is held at the probe instant.
func TestPoolConditionsAtZeroFree(t *testing.T) {
	base := Default()
	p, _ := NewPool(100)
	if _, err := p.Allocate(0, 100, 1, 50); err != nil {
		t.Fatal(err)
	}
	p.Advance(10)
	if cond, ok := p.Conditions(0, base); ok {
		t.Fatalf("zero free containers yielded conditions %+v", cond)
	}
	// At the finish instant the full space is back.
	p.Advance(50)
	if cond, ok := p.Conditions(0, base); !ok || cond != base {
		t.Fatalf("post-finish conditions %+v ok=%v", cond, ok)
	}
}

// TestPoolReleaseOrderDeterministicUnderPreemption revokes a pseudo-random
// subset mid-run and checks the survivors still release in (finish, token)
// order, identically across repeats — preemption must not perturb the
// release ordering the arbiter's determinism depends on.
func TestPoolReleaseOrderDeterministicUnderPreemption(t *testing.T) {
	run := func() []int64 {
		p, _ := NewPool(64)
		rng := rand.New(rand.NewSource(99))
		var toks []int64
		for i := 0; i < 40; i++ {
			finish := float64(1 + rng.Intn(5)) // heavy finish-time ties
			tok, err := p.Allocate(0, 1, 1, finish)
			if err != nil {
				t.Fatal(err)
			}
			toks = append(toks, tok)
		}
		for _, tok := range toks {
			if rng.Float64() < 0.4 {
				if _, ok := p.Revoke(tok); !ok {
					t.Fatalf("revoke(%d) failed", tok)
				}
			}
		}
		var order []int64
		for _, r := range p.Advance(100) {
			order = append(order, r.Token)
		}
		return order
	}
	first := run()
	for i, tok := range first[1:] {
		prev := first[i]
		// Same-finish ties must come out in token order; the generator
		// makes finishes coarse so cross-finish order is covered too.
		if prev >= tok && prev-tok > 40 {
			t.Fatalf("implausible release order: %v", first)
		}
	}
	for rep := 0; rep < 3; rep++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("repeat released %d, want %d", len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("repeat %d diverged at %d: %v vs %v", rep, i, again, first)
			}
		}
	}
}

func TestPoolSetCapacity(t *testing.T) {
	p, _ := NewPool(10)
	if _, err := p.Allocate(0, 6, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.SetCapacity(0, 16); err != nil || p.Capacity(0) != 16 || p.Free(0) != 10 {
		t.Fatalf("grow: err=%v cap=%d free=%d", err, p.Capacity(0), p.Free(0))
	}
	if err := p.SetCapacity(0, 6); err != nil || p.Capacity(0) != 6 || p.Free(0) != 0 {
		t.Fatalf("shrink to in-use: err=%v cap=%d free=%d", err, p.Capacity(0), p.Free(0))
	}
	if err := p.SetCapacity(0, 5); err == nil {
		t.Fatal("shrink below in-use accepted")
	}
	if err := p.SetCapacity(0, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	p.Advance(10)
	if p.Free(0) != 6 {
		t.Fatalf("free after finish = %d, want 6", p.Free(0))
	}
}

// TestRunMatchesConditionsAtOccupancy cross-checks the two views of the one
// occupancy model: at every job start/finish boundary, summing the gangs
// Run reports as held must equal what conditionsAt says is not free.
func TestRunMatchesConditionsAtOccupancy(t *testing.T) {
	s := &Simulator{Capacity: TraceCapacity}
	jobs := GenerateTrace(rand.New(rand.NewSource(7)))
	results, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	base := Conditions{
		MinContainers: 1, MaxContainers: 50, ContainerStep: 1,
		MinContainerGB: 1, MaxContainerGB: 4, GBStep: 1,
	}
	for _, probe := range []float64{results[20].Start, results[100].Finish, results[150].Start + 0.5} {
		held := 0
		for _, r := range results {
			if r.Start <= probe && probe < r.Finish {
				held += r.Containers
			}
		}
		cond, ok, err := conditionsAt(s, jobs, probe, base)
		if err != nil {
			t.Fatal(err)
		}
		free := s.Capacity - held
		if !ok {
			if free >= base.MinContainers {
				t.Fatalf("t=%g: ok=false with %d free", probe, free)
			}
			continue
		}
		want := free
		if want > base.MaxContainers {
			want = base.MaxContainers
		}
		if cond.MaxContainers != want {
			t.Fatalf("t=%g: conditionsAt says %d free, Run says %d", probe, cond.MaxContainers, want)
		}
	}
}

// TestPoolRunningOrderOracle: random allocations over three classes,
// advances and revokes, with finish times drawn from a few values so ties
// are common, keep the running slice equal to a stable sort of its
// contents by (finish, token) after every step; Advance releases exactly
// the due prefix of that order and Revoke exactly the allocation named.
func TestPoolRunningOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, err := NewPool(1<<20, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(a, b Release) int {
		if a.Finish != b.Finish {
			return cmp.Compare(a.Finish, b.Finish)
		}
		return cmp.Compare(a.Token, b.Token)
	}
	sortedStable := func(as []Release) []Release {
		out := slices.Clone(as)
		slices.SortStableFunc(out, byKey)
		return out
	}
	var want []Release // the running allocations, in allocation order
	for step := 0; step < 20000; step++ {
		sorted := sortedStable(want)
		switch op := rng.Intn(5); {
		case op < 2 || len(want) == 0:
			finish := p.Now() + float64(rng.Intn(4))
			c, n := rng.Intn(3), rng.Intn(4)+1
			tok, err := p.Allocate(c, n, 1, finish)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want = append(want, Release{Token: tok, Class: c, Finish: finish, Containers: n, GBEach: 1})
		case op < 4:
			now := p.Now() + float64(rng.Intn(3))
			rel := p.Advance(now)
			due := 0
			for due < len(sorted) && sorted[due].Finish <= now {
				due++
			}
			if !slices.Equal(rel, sorted[:due]) {
				t.Fatalf("step %d: Advance(%g) released %+v, want the due prefix %+v", step, now, rel, sorted[:due])
			}
			want = slices.DeleteFunc(want, func(a Release) bool { return a.Finish <= now })
		default:
			i := rng.Intn(len(want))
			if r, ok := p.Revoke(want[i].Token); !ok || r != want[i] {
				t.Fatalf("step %d: Revoke(%d) = %+v, %v, want %+v", step, want[i].Token, r, ok, want[i])
			}
			want = slices.Delete(want, i, i+1)
		}
		if got := sortedStable(want); !slices.Equal(p.running, got) {
			t.Fatalf("step %d: running %+v, want %+v", step, p.running, got)
		}
	}
}
