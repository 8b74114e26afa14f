package resource

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
)

// quadModel has a unique global optimum at (ncOpt, csOpt), convex, so hill
// climbing must find the same configuration as brute force.
func quadModel(ncOpt, csOpt float64) cost.Model {
	return cost.ModelFunc{
		ModelName: "quad",
		Fn: func(ss, cs, nc float64) float64 {
			return 10 + ss + (nc-ncOpt)*(nc-ncOpt) + 3*(cs-csOpt)*(cs-csOpt)
		},
	}
}

func cond() cluster.Conditions { return cluster.Default() }

// numConfigs is the size of cond()'s resource space: 100 counts x 10 sizes.
const numConfigs = 1000

func TestBruteForceFindsOptimum(t *testing.T) {
	b := &BruteForce{}
	r, err := b.Plan(quadModel(42, 7), 1, cond())
	if err != nil {
		t.Fatal(err)
	}
	if r.Containers != 42 || r.ContainerGB != 7 {
		t.Errorf("got %v, want 42x7GB", r)
	}
	if b.Evaluations() != numConfigs {
		t.Errorf("evaluations = %d, want %d", b.Evaluations(), numConfigs)
	}
}

func TestBruteForceValidation(t *testing.T) {
	b := &BruteForce{}
	if _, err := b.Plan(quadModel(1, 1), 1, cluster.Conditions{}); err == nil {
		t.Error("invalid conditions accepted")
	}
}

func TestHillClimbFindsConvexOptimum(t *testing.T) {
	h := &HillClimb{}
	r, err := h.Plan(quadModel(42, 7), 1, cond())
	if err != nil {
		t.Fatal(err)
	}
	if r.Containers != 42 || r.ContainerGB != 7 {
		t.Errorf("got %v, want 42x7GB", r)
	}
	// The whole point: far fewer evaluations than brute force.
	if h.Evaluations() >= numConfigs/2 {
		t.Errorf("hill climb used %d evaluations, brute force would use %d",
			h.Evaluations(), numConfigs)
	}
}

func TestHillClimbRespectsBounds(t *testing.T) {
	// Optimum outside the space: must clamp to the boundary.
	h := &HillClimb{}
	r, err := h.Plan(quadModel(1000, 100), 1, cond())
	if err != nil {
		t.Fatal(err)
	}
	if r.Containers != 100 || r.ContainerGB != 10 {
		t.Errorf("got %v, want 100x10GB (boundary)", r)
	}
}

func TestHillClimbCustomStart(t *testing.T) {
	h := &HillClimb{Start: plan.Resources{Containers: 90, ContainerGB: 9}}
	r, err := h.Plan(quadModel(42, 7), 1, cond())
	if err != nil {
		t.Fatal(err)
	}
	if r.Containers != 42 || r.ContainerGB != 7 {
		t.Errorf("from custom start: got %v", r)
	}
}

func TestHillClimbLocalOptimumProperty(t *testing.T) {
	// For arbitrary (possibly multimodal) smooth models, the result must be
	// a local optimum: no single step improves it. And it must stay on the
	// grid.
	c := cond()
	f := func(a, b, cph uint8) bool {
		// A two-bump cost surface.
		m := cost.ModelFunc{ModelName: "bumpy", Fn: func(ss, cs, nc float64) float64 {
			return math.Sin(float64(a%7)+nc/9)*50 + math.Cos(float64(b%7)+cs)*40 + nc*float64(cph%3)
		}}
		h := &HillClimb{}
		r, err := h.Plan(m, 1, c)
		if err != nil {
			return false
		}
		if !c.Contains(r) {
			return false
		}
		cur := m.Cost(1, r.ContainerGB, float64(r.Containers))
		for _, d := range []plan.Resources{
			{Containers: r.Containers - c.ContainerStep, ContainerGB: r.ContainerGB},
			{Containers: r.Containers + c.ContainerStep, ContainerGB: r.ContainerGB},
			{Containers: r.Containers, ContainerGB: r.ContainerGB - c.GBStep},
			{Containers: r.Containers, ContainerGB: r.ContainerGB + c.GBStep},
		} {
			if !c.Contains(d) {
				continue
			}
			if m.Cost(1, d.ContainerGB, float64(d.Containers)) < cur-1e-9 {
				return false // a strictly better neighbor exists
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHillClimbMatchesBruteForceOnPaperModels(t *testing.T) {
	// On the paper's own published cost models the hill climb should land
	// at (or extremely near) the brute-force optimum, since the regression
	// surfaces are smooth.
	for _, m := range []cost.Model{cost.PaperSMJ(), cost.PaperBHJ()} {
		for _, ss := range []float64{0.5, 2, 5.1} {
			bf := &BruteForce{}
			want, err := bf.Plan(m, ss, cond())
			if err != nil {
				t.Fatal(err)
			}
			hc := &HillClimb{}
			got, err := hc.Plan(m, ss, cond())
			if err != nil {
				t.Fatal(err)
			}
			wc := m.Cost(ss, want.ContainerGB, float64(want.Containers))
			gc := m.Cost(ss, got.ContainerGB, float64(got.Containers))
			if gc > wc*1.05+1e-9 {
				t.Errorf("ss=%v: hill climb cost %v at %v, brute force %v at %v", ss, gc, got, wc, want)
			}
		}
	}
}

func TestCacheExactMode(t *testing.T) {
	inner := &HillClimb{}
	c := &Cache{Inner: inner, Mode: Exact}
	m := quadModel(42, 7)
	r1, err := c.Plan(m, 3.0, cond())
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 0 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	// Same key: hit, no extra evaluations.
	before := inner.Evaluations()
	r2, err := c.Plan(m, 3.0, cond())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("cache returned %v, want %v", r2, r1)
	}
	if c.Hits() != 1 || inner.Evaluations() != before {
		t.Errorf("exact hit should not re-plan (hits=%d, evals %d->%d)", c.Hits(), before, inner.Evaluations())
	}
	// Different key: miss.
	if _, err := c.Plan(m, 3.1, cond()); err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 2 {
		t.Errorf("misses = %d, want 2", c.Misses())
	}
	if c.Size() != 2 {
		t.Errorf("size = %d, want 2", c.Size())
	}
}

func TestCachePerModelIsolation(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: Exact}
	smj, bhj := cost.PaperSMJ(), cost.PaperBHJ()
	if _, err := c.Plan(smj, 1, cond()); err != nil {
		t.Fatal(err)
	}
	// Same key, different model: must be a miss (separate index).
	if _, err := c.Plan(bhj, 1, cond()); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 0 || c.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d, want 0/2", c.Hits(), c.Misses())
	}
}

func TestCacheNearestNeighbor(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: NearestNeighbor, ThresholdGB: 0.5}
	m := quadModel(42, 7)
	r1, err := c.Plan(m, 3.0, cond())
	if err != nil {
		t.Fatal(err)
	}
	// Within threshold: hit with the neighbor's configuration.
	r2, err := c.Plan(m, 3.3, cond())
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 || c.Hits() != 1 {
		t.Errorf("NN lookup: got %v hits=%d", r2, c.Hits())
	}
	// Beyond threshold: miss.
	if _, err := c.Plan(m, 4.0, cond()); err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 2 {
		t.Errorf("misses = %d", c.Misses())
	}
}

func TestCacheWeightedAverage(t *testing.T) {
	// Threshold below the 2.0-3.0 key spacing so both anchor keys insert,
	// but above the 0.5 distance from the 2.5 probe to each anchor.
	c := &Cache{Inner: &BruteForce{}, Mode: WeightedAverage, ThresholdGB: 0.6}
	// Model whose optimum depends on ss so neighbors differ.
	m := cost.ModelFunc{ModelName: "ss-dependent", Fn: func(ss, cs, nc float64) float64 {
		opt := 20 + 10*ss
		return (nc-opt)*(nc-opt) + (cs-5)*(cs-5)
	}}
	if _, err := c.Plan(m, 2.0, cond()); err != nil { // optimum nc=40
		t.Fatal(err)
	}
	if _, err := c.Plan(m, 3.0, cond()); err != nil { // optimum nc=50
		t.Fatal(err)
	}
	r, err := c.Plan(m, 2.5, cond())
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 1 {
		t.Fatalf("WA lookup missed (hits=%d)", c.Hits())
	}
	// Equidistant neighbors: average of 40 and 50 = 45.
	if r.Containers != 45 || r.ContainerGB != 5 {
		t.Errorf("WA = %v, want 45x5GB", r)
	}
	if !cond().Contains(r) {
		t.Error("WA result off-grid")
	}
}

func TestCacheWeightedAverageSnapsToGrid(t *testing.T) {
	c := &Cache{Inner: &BruteForce{}, Mode: WeightedAverage, ThresholdGB: 1.0}
	m := quadModel(42, 7)
	if _, err := c.Plan(m, 1.0, cond()); err != nil {
		t.Fatal(err)
	}
	r, err := c.Plan(m, 1.2, cond())
	if err != nil {
		t.Fatal(err)
	}
	if !cond().Contains(r) {
		t.Errorf("WA result %v off-grid", r)
	}
}

func TestCacheReset(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: Exact}
	m := quadModel(42, 7)
	if _, err := c.Plan(m, 1, cond()); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.Size() != 0 {
		t.Errorf("size after reset = %d", c.Size())
	}
	if _, err := c.Plan(m, 1, cond()); err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 2 {
		t.Errorf("misses = %d, want 2 (reset cleared the entry)", c.Misses())
	}
}

func TestCacheNoInner(t *testing.T) {
	c := &Cache{}
	if _, err := c.Plan(quadModel(1, 1), 1, cond()); err == nil {
		t.Error("nil inner accepted")
	}
	if _, n, err := c.PlanCounted(quadModel(1, 1), 1, cond()); err == nil || n != 0 {
		t.Errorf("PlanCounted with nil inner: evaluations=%d err=%v", n, err)
	}
	if n := c.Evaluations(); n != 0 {
		t.Errorf("Evaluations with nil inner = %d, want 0", n)
	}
}

// TestCacheVersion pins what advances Version: inserts and drops, and
// nothing that leaves the entries as they were.
func TestCacheVersion(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: NearestNeighbor, ThresholdGB: 0.5}
	m := quadModel(42, 7)
	step := func(what string, want uint64, do func()) {
		t.Helper()
		do()
		if got := c.Version(); got != want {
			t.Fatalf("after %s: Version = %d, want %d", what, got, want)
		}
	}
	plan := func(ss float64) func() {
		return func() {
			if _, err := c.Plan(m, ss, cond()); err != nil {
				t.Fatal(err)
			}
		}
	}
	step("nothing", 0, func() {})
	step("a miss", 1, plan(1))
	step("an exact hit", 1, plan(1))
	step("a neighbour hit", 1, plan(1.2))
	step("a second miss", 2, plan(3))
	step("counting hits", 2, func() { c.CountHits(3) })
	gen := c.Stats().Generation
	step("a stale ResetIfGeneration", 2, func() {
		if c.ResetIfGeneration(gen + 1) {
			t.Fatal("stale generation reset the cache")
		}
	})
	step("a ResetIfGeneration", 3, func() {
		if !c.ResetIfGeneration(gen) {
			t.Fatal("current generation did not reset the cache")
		}
	})
	step("a Reset of an empty cache", 4, c.Reset)
	if st := c.Stats(); st.Hits != 5 || st.Misses != 2 {
		t.Errorf("stats %+v: want 5 hits (2 probes + 3 counted), 2 misses", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: NearestNeighbor, ThresholdGB: 0.01}
	m := quadModel(42, 7)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				_, err = c.Plan(m, float64(i%10), cond())
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if c.Size() > 10 {
		t.Errorf("size = %d, want <= 10 distinct keys", c.Size())
	}
}

func TestLookupModeString(t *testing.T) {
	if Exact.String() != "exact" || NearestNeighbor.String() != "nearest-neighbor" ||
		WeightedAverage.String() != "weighted-average" {
		t.Error("mode names wrong")
	}
}

// The paper's headline: hill climbing explores ~4x fewer configurations
// than brute force on its cost models.
func TestHillClimbReductionFactor(t *testing.T) {
	bf := &BruteForce{}
	hc := &HillClimb{}
	for _, ss := range []float64{0.5, 1, 2, 3.4, 5.1} {
		if _, err := bf.Plan(cost.PaperSMJ(), ss, cond()); err != nil {
			t.Fatal(err)
		}
		if _, err := hc.Plan(cost.PaperSMJ(), ss, cond()); err != nil {
			t.Fatal(err)
		}
	}
	if factor := float64(bf.Evaluations()) / float64(hc.Evaluations()); factor < 2 {
		t.Errorf("hill climb reduction factor = %.1fx, want >= 2x", factor)
	}
}

func TestResetIfGeneration(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: Exact}
	m := quadModel(42, 7)
	if _, err := c.Plan(m, 1, cond()); err != nil {
		t.Fatal(err)
	}
	gen := c.Stats().Generation

	// Stale generation: no reset, entries survive.
	if c.ResetIfGeneration(gen + 5) {
		t.Fatal("reset succeeded with a stale generation")
	}
	if c.Size() != 1 || c.Stats().Generation != gen {
		t.Fatalf("failed CAS mutated the cache: size=%d gen=%d", c.Size(), c.Stats().Generation)
	}

	// Current generation: resets exactly like Reset.
	if !c.ResetIfGeneration(gen) {
		t.Fatal("reset refused with the current generation")
	}
	if c.Size() != 0 {
		t.Error("entries survived ResetIfGeneration")
	}
	if g := c.Stats().Generation; g != gen+1 {
		t.Errorf("generation = %d, want %d", g, gen+1)
	}
	if c.Stats().Evictions == 0 {
		t.Error("eviction not counted")
	}

	// The observed generation is now stale: a second caller holding it
	// cannot clobber the rebuilt cache.
	if _, err := c.Plan(m, 2, cond()); err != nil {
		t.Fatal(err)
	}
	if c.ResetIfGeneration(gen) {
		t.Fatal("second reset with the consumed generation succeeded")
	}
	if c.Size() != 1 {
		t.Error("rebuilt cache was clobbered")
	}
}

// TestResetIfGenerationRace: of N concurrent callers holding the same
// observed generation, exactly one wins, and the generation advances
// exactly once. Run with -race.
func TestResetIfGenerationRace(t *testing.T) {
	c := &Cache{Inner: &HillClimb{}, Mode: Exact}
	m := quadModel(42, 7)
	for round := 0; round < 20; round++ {
		if _, err := c.Plan(m, float64(round), cond()); err != nil {
			t.Fatal(err)
		}
		gen := c.Stats().Generation
		const racers = 8
		wins := make(chan bool, racers)
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				wins <- c.ResetIfGeneration(gen)
			}()
		}
		start.Done()
		wg.Wait()
		close(wins)
		won := 0
		for w := range wins {
			if w {
				won++
			}
		}
		if won != 1 {
			t.Fatalf("round %d: %d concurrent resets won, want exactly 1", round, won)
		}
		if g := c.Stats().Generation; g != gen+1 {
			t.Fatalf("round %d: generation advanced to %d from %d, want exactly one bump", round, g, gen)
		}
	}
}
