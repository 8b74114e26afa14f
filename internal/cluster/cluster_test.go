package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"raqo/internal/plan"
)

func TestDefaultConditions(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.ContainerLevels() != 100 || c.SizeLevels() != 10 {
		t.Errorf("levels = %d x %d, want 100 counts x 10 sizes", c.ContainerLevels(), c.SizeLevels())
	}
	if got := c.MinResources(); got != (plan.Resources{Containers: 1, ContainerGB: 1}) {
		t.Errorf("MinResources = %v", got)
	}
}

func TestConditionsValidate(t *testing.T) {
	bad := []Conditions{
		{MinContainers: 0, MaxContainers: 10, ContainerStep: 1, MinContainerGB: 1, MaxContainerGB: 2, GBStep: 1},
		{MinContainers: 5, MaxContainers: 4, ContainerStep: 1, MinContainerGB: 1, MaxContainerGB: 2, GBStep: 1},
		{MinContainers: 1, MaxContainers: 10, ContainerStep: 0, MinContainerGB: 1, MaxContainerGB: 2, GBStep: 1},
		{MinContainers: 1, MaxContainers: 10, ContainerStep: 1, MinContainerGB: 0, MaxContainerGB: 2, GBStep: 1},
		{MinContainers: 1, MaxContainers: 10, ContainerStep: 1, MinContainerGB: 3, MaxContainerGB: 2, GBStep: 1},
		{MinContainers: 1, MaxContainers: 10, ContainerStep: 1, MinContainerGB: 1, MaxContainerGB: 2, GBStep: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid conditions accepted: %v", i, c)
		}
	}
}

func TestContainsAndClamp(t *testing.T) {
	c := Default()
	if !c.Contains(plan.Resources{Containers: 50, ContainerGB: 5}) {
		t.Error("in-range config rejected")
	}
	if c.Contains(plan.Resources{Containers: 0, ContainerGB: 5}) {
		t.Error("below-min containers accepted")
	}
	if c.Contains(plan.Resources{Containers: 101, ContainerGB: 5}) {
		t.Error("above-max containers accepted")
	}
	if c.Contains(plan.Resources{Containers: 50, ContainerGB: 5.5}) {
		t.Error("off-grid size accepted")
	}
	got := c.Clamp(plan.Resources{Containers: 500, ContainerGB: 99})
	if got != (plan.Resources{Containers: 100, ContainerGB: 10}) {
		t.Errorf("Clamp high = %v", got)
	}
	got = c.Clamp(plan.Resources{Containers: -3, ContainerGB: 0.2})
	if got != (plan.Resources{Containers: 1, ContainerGB: 1}) {
		t.Errorf("Clamp low = %v", got)
	}
}

func TestClampProperty(t *testing.T) {
	c := Conditions{MinContainers: 2, MaxContainers: 97, ContainerStep: 5,
		MinContainerGB: 1.5, MaxContainerGB: 9.5, GBStep: 2}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	f := func(nc int16, gbRaw uint16) bool {
		r := plan.Resources{Containers: int(nc), ContainerGB: float64(gbRaw) / 100}
		return c.Contains(c.Clamp(r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachEnumeratesAll(t *testing.T) {
	c := Conditions{MinContainers: 1, MaxContainers: 5, ContainerStep: 2,
		MinContainerGB: 1, MaxContainerGB: 3, GBStep: 1}
	var seen []plan.Resources
	c.ForEach(func(r plan.Resources) bool {
		if !c.Contains(r) {
			t.Errorf("ForEach produced off-grid %v", r)
		}
		seen = append(seen, r)
		return true
	})
	if want := c.ContainerLevels() * c.SizeLevels(); len(seen) != want {
		t.Errorf("enumerated %d configs, the grid has %d", len(seen), want)
	}
	// Early stop.
	n := 0
	c.ForEach(func(plan.Resources) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestRestrict(t *testing.T) {
	c := Default()
	q, err := c.Restrict(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.MaxContainers != 20 || q.MaxContainerGB != 4 {
		t.Errorf("Restrict = %+v", q)
	}
	if _, err := c.Restrict(0, 4); err == nil {
		t.Error("empty quota accepted")
	}
}

func TestSimulatorNoContention(t *testing.T) {
	sim := &Simulator{Capacity: 100}
	jobs := []Job{
		{ID: 0, Arrival: 0, Containers: 10, Duration: 5},
		{ID: 1, Arrival: 100, Containers: 10, Duration: 5},
	}
	res, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.QueueTime != 0 {
			t.Errorf("job %d queued %.1fs with idle cluster", r.ID, r.QueueTime)
		}
	}
}

func TestSimulatorSerializesOnCapacity(t *testing.T) {
	sim := &Simulator{Capacity: 10}
	jobs := []Job{
		{ID: 0, Arrival: 0, Containers: 10, Duration: 10},
		{ID: 1, Arrival: 1, Containers: 10, Duration: 10},
		{ID: 2, Arrival: 2, Containers: 10, Duration: 10},
	}
	res, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].QueueTime != 0 {
		t.Errorf("job 0 queue = %v", res[0].QueueTime)
	}
	if res[1].Start != 10 || res[1].QueueTime != 9 {
		t.Errorf("job 1 start=%v queue=%v, want 10/9", res[1].Start, res[1].QueueTime)
	}
	if res[2].Start != 20 || res[2].QueueTime != 18 {
		t.Errorf("job 2 start=%v queue=%v, want 20/18", res[2].Start, res[2].QueueTime)
	}
	if got := res[1].Ratio(); got != 0.9 {
		t.Errorf("job 1 ratio = %v, want 0.9", got)
	}
}

func TestSimulatorFIFOHeadOfLine(t *testing.T) {
	// A big job at the head blocks a small one behind it (FIFO).
	sim := &Simulator{Capacity: 10}
	jobs := []Job{
		{ID: 0, Arrival: 0, Containers: 8, Duration: 10},
		{ID: 1, Arrival: 1, Containers: 8, Duration: 10},
		{ID: 2, Arrival: 2, Containers: 1, Duration: 1},
	}
	res, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[2].Start < res[1].Start {
		t.Errorf("FIFO violated: small job started %v before blocked head %v", res[2].Start, res[1].Start)
	}
}

func TestSimulatorValidation(t *testing.T) {
	sim := &Simulator{Capacity: 0}
	if _, err := sim.Run(nil); err == nil {
		t.Error("zero capacity accepted")
	}
	sim.Capacity = 5
	if _, err := sim.Run([]Job{{Containers: 6, Duration: 1}}); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := sim.Run([]Job{{Containers: 1, Duration: 0}}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateTrace(rng, TraceConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultTrace()
	cfg.MaxGang = cfg.Capacity + 1
	if _, err := GenerateTrace(rng, cfg); err == nil {
		t.Error("MaxGang > capacity accepted")
	}
}

func TestTraceMatchesFigure1Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultTrace()
	jobs, err := GenerateTrace(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulator{Capacity: cfg.Capacity}
	res, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 1: >80% of jobs wait at least their execution time; >20%
	// wait at least 4x. Allow slack — we check the regime, not the decimals.
	if f := FractionAtLeast(res, 1); f < 0.6 {
		t.Errorf("fraction with ratio>=1 is %.2f, want >= 0.6 (overloaded regime)", f)
	}
	if f := FractionAtLeast(res, 4); f < 0.15 {
		t.Errorf("fraction with ratio>=4 is %.2f, want >= 0.15", f)
	}
	fr, ra := RatioCDF(res)
	if len(fr) != len(res) || len(ra) != len(res) {
		t.Fatal("CDF size mismatch")
	}
	for i := 1; i < len(ra); i++ {
		if ra[i] < ra[i-1] || fr[i] < fr[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestFractionAtLeastEmpty(t *testing.T) {
	if got := FractionAtLeast(nil, 1); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

// jobResult builds a JobResult with the given queue/run ratio directly.
func jobResult(queue, run float64) JobResult {
	return JobResult{Job: Job{Duration: run}, QueueTime: queue}
}

func TestRatioCDFEmpty(t *testing.T) {
	fr, ra := RatioCDF(nil)
	if len(fr) != 0 || len(ra) != 0 {
		t.Fatalf("empty results gave %d fractions, %d ratios", len(fr), len(ra))
	}
}

func TestRatioCDFSingleJob(t *testing.T) {
	fr, ra := RatioCDF([]JobResult{jobResult(4, 2)})
	if len(fr) != 1 || len(ra) != 1 {
		t.Fatalf("single job gave %d fractions, %d ratios", len(fr), len(ra))
	}
	if fr[0] != 1 {
		t.Errorf("fraction = %g, want 1 (the single job is the whole CDF)", fr[0])
	}
	if ra[0] != 2 {
		t.Errorf("ratio = %g, want 2", ra[0])
	}
}

// TestFractionAtLeastBoundaries pins the comparison as inclusive: a job
// whose ratio is exactly x counts, x=0 counts everything, and a
// zero-duration job contributes ratio 0 rather than dividing by zero.
func TestFractionAtLeastBoundaries(t *testing.T) {
	res := []JobResult{jobResult(1, 2), jobResult(2, 2), jobResult(4, 2)} // ratios 0.5, 1, 2
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 1},       // every ratio is >= 0
		{0.5, 1},     // x exactly at the smallest ratio: inclusive
		{1, 2.0 / 3}, // x exactly at a middle ratio
		{2, 1.0 / 3}, // x exactly at the largest ratio
		{3, 0},       // above every ratio
	}
	for _, tc := range cases {
		if got := FractionAtLeast(res, tc.x); got != tc.want {
			t.Errorf("FractionAtLeast(x=%g) = %g, want %g", tc.x, got, tc.want)
		}
	}

	zero := []JobResult{jobResult(5, 0)}
	if got := zero[0].Ratio(); got != 0 {
		t.Errorf("zero-duration ratio = %g, want 0", got)
	}
	if got := FractionAtLeast(zero, 1); got != 0 {
		t.Errorf("zero-duration job counted at x=1: %g", got)
	}
}
