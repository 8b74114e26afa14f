// Package execsim is the execution substrate standing in for the paper's
// 10-VM Hive-on-Tez / SparkSQL-on-YARN cluster: an analytic simulator of
// join-stage execution under a resource configuration (container size and
// number of concurrent containers).
//
// The model is calibrated so the paper's measured switch points hold (see
// DESIGN.md §4 and calibrate_test.go): with a 5.1 GB build side and 10
// containers, SMJ and BHJ cross at ≈7 GB containers and BHJ OOMs below
// 5 GB; at fixed container size the implementations cross at ≈20 concurrent
// containers; the data-size switch point moves up with container size; and
// Figure 5's chained map-join plan OOMs below ≈6 GB containers.
package execsim

import (
	"fmt"
	"math"

	"raqo/internal/cost"
	"raqo/internal/dag"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// Params holds the calibrated constants of one engine profile. All rates
// are GB/s per container; times are seconds.
type Params struct {
	Name string

	StageStartup  float64 // fixed cost of launching a stage
	ReduceStartup float64 // extra startup for the reduce phase of an SMJ
	TaskOverhead  float64 // scheduling cost per task, amortized over containers

	MapRate     float64 // scan + partition throughput
	ShuffleRate float64 // shuffle write + read + sort + merge throughput
	SortMemFrac float64 // fraction of a container usable as sort buffer
	SpillCoef   float64 // penalty per doubling of per-reducer data over the buffer

	BcastRate float64 // broadcast distribution throughput
	BcastFan  float64 // containers per unit of extra broadcast cost
	BuildRate float64 // hash-table build throughput
	ProbeRate float64 // hash probe (stream the large side) throughput

	OOMFrac       float64 // a single hash side fits if hashGB <= OOMFrac*cs
	ChainOverhead float64 // memory headroom lost per extra chained map-join
	PenFrac       float64 // memory-pressure normalizer: u = hashGB/(PenFrac*cs)
	PenCoef       float64 // memory-pressure penalty = 1 + PenCoef*u^PenPow
	PenPow        float64

	// ForcedReducers overrides the automatic reducer count of shuffle
	// stages when positive (the #reducers knob of Figure 9).
	ForcedReducers int
}

// Hive returns the Hive-on-Tez profile, the primary engine of the paper's
// Section III analysis.
func Hive() Params {
	return Params{
		Name:          "hive",
		StageStartup:  20,
		ReduceStartup: 20,
		TaskOverhead:  0.03,
		MapRate:       0.05,
		ShuffleRate:   0.009,
		SortMemFrac:   0.15,
		SpillCoef:     0.3,
		BcastRate:     0.05,
		BcastFan:      30,
		BuildRate:     0.05,
		ProbeRate:     0.02,
		OOMFrac:       1.25,
		ChainOverhead: 1.3,
		PenFrac:       1.6,
		PenCoef:       25,
		PenPow:        4,
	}
}

// Spark returns the SparkSQL profile: faster in-memory processing, a
// torrent-style broadcast that scales better with the container count, and
// a much lower broadcast-side memory ceiling (executors reserve most of the
// container for execution and the driver collects the broadcast relation),
// which is why the paper's Figure 9(b) switch points sit in the hundreds of
// megabytes rather than gigabytes.
func Spark() Params {
	return Params{
		Name:          "spark",
		StageStartup:  12,
		ReduceStartup: 8,
		TaskOverhead:  0.01,
		MapRate:       0.08,
		ShuffleRate:   0.012,
		SortMemFrac:   0.25,
		SpillCoef:     0.35,
		BcastRate:     0.08,
		BcastFan:      60,
		BuildRate:     0.08,
		ProbeRate:     0.03,
		OOMFrac:       0.45,
		ChainOverhead: 1.0,
		PenFrac:       0.6,
		PenCoef:       25,
		PenPow:        4,
	}
}

// Validate checks the profile for usable constants.
func (p Params) Validate() error {
	// A fixed check order keeps the reported field deterministic when
	// several constants are invalid at once (a map here made the error
	// message depend on iteration order).
	pos := []struct {
		name string
		v    float64
	}{
		{"MapRate", p.MapRate}, {"ShuffleRate", p.ShuffleRate}, {"BcastRate", p.BcastRate},
		{"BuildRate", p.BuildRate}, {"ProbeRate", p.ProbeRate}, {"OOMFrac", p.OOMFrac},
		{"PenFrac", p.PenFrac}, {"SortMemFrac", p.SortMemFrac}, {"BcastFan", p.BcastFan},
	}
	for _, c := range pos {
		if c.v <= 0 {
			return fmt.Errorf("execsim: %s must be positive, got %v", c.name, c.v)
		}
	}
	if p.StageStartup < 0 || p.ReduceStartup < 0 || p.TaskOverhead < 0 ||
		p.SpillCoef < 0 || p.ChainOverhead < 0 || p.PenCoef < 0 || p.PenPow < 0 {
		return fmt.Errorf("execsim: negative overhead in profile %q", p.Name)
	}
	return nil
}

// OOMError reports a broadcast stage whose hash side(s) do not fit in
// container memory — the simulator's version of Hive's map-join failure.
type OOMError struct {
	Engine string
	HashGB float64
	CapGB  float64
	Chain  int // number of hash tables held simultaneously
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("execsim(%s): broadcast join out of memory: %.2f GB hash side(s) over a %.2f GB budget (%d chained)",
		e.Engine, e.HashGB, e.CapGB, e.Chain)
}

// HashCapacityGB returns the memory budget available for hash tables in one
// container of size cs when chain hash tables are held simultaneously.
func (p Params) HashCapacityGB(cs float64, chain int) float64 {
	if chain < 1 {
		chain = 1
	}
	return p.OOMFrac * cs / (1 + p.ChainOverhead*float64(chain-1))
}

// memPenalty is the slowdown from memory pressure as the hash side
// approaches the container budget (GC churn, spilling).
func (p Params) memPenalty(hashGB, cs float64) float64 {
	u := hashGB / (p.PenFrac * cs)
	return 1 + p.PenCoef*math.Pow(u, p.PenPow)
}

// SMJTime models a shuffle sort-merge join stage: map-scan both inputs,
// shuffle to reducers, external sort and merge. shuffleGB is the total data
// crossing the shuffle; reducers <= 0 means the auto rule (one reducer per
// 256 MB of shuffle data).
func (p Params) SMJTime(shuffleGB float64, r plan.Resources, reducers int) float64 {
	if reducers <= 0 {
		reducers = dag.AutoReducers(shuffleGB)
	}
	nc := float64(r.Containers)
	mapTasks := math.Ceil(shuffleGB / dag.SplitGB)
	if mapTasks < 1 {
		mapTasks = 1
	}
	ncMap := math.Min(nc, mapTasks)
	ncRed := math.Min(nc, float64(reducers))

	perReducer := shuffleGB / float64(reducers)
	spill := 1.0
	if buf := r.ContainerGB * p.SortMemFrac; perReducer > buf {
		spill += p.SpillCoef * math.Log2(perReducer/buf)
	}
	t := p.StageStartup + p.ReduceStartup
	t += shuffleGB / (ncMap * p.MapRate)
	t += shuffleGB / (ncRed * p.ShuffleRate) * spill
	t += (mapTasks + float64(reducers)) * p.TaskOverhead / nc
	return t
}

// BHJTime models a broadcast hash join map stage: distribute the hash
// side(s) to every container, build the table(s), stream the probe side.
// chain is the number of hash tables held simultaneously (merged map-join
// pipelines). Returns an OOMError when the hash sides do not fit.
func (p Params) BHJTime(hashGB, probeGB float64, chain int, r plan.Resources) (float64, error) {
	if chain < 1 {
		chain = 1
	}
	if cap := p.HashCapacityGB(r.ContainerGB, chain); hashGB > cap {
		return 0, &OOMError{Engine: p.Name, HashGB: hashGB, CapGB: cap, Chain: chain}
	}
	nc := float64(r.Containers)
	pen := p.memPenalty(hashGB, r.ContainerGB)
	mapTasks := math.Ceil(probeGB / dag.SplitGB)
	if mapTasks < 1 {
		mapTasks = 1
	}
	ncEff := math.Min(nc, mapTasks)

	t := p.StageStartup
	t += hashGB / p.BcastRate * (1 + nc/p.BcastFan)
	t += hashGB / p.BuildRate * pen
	t += probeGB / (ncEff * p.ProbeRate) * pen
	t += mapTasks * p.TaskOverhead / nc
	return t, nil
}

// StageTime computes the simulated wall-clock of one DAG stage under the
// given resource configuration.
func (p Params) StageTime(st *dag.Stage, r plan.Resources) (float64, error) {
	if r.Containers < 1 || r.ContainerGB <= 0 {
		return 0, fmt.Errorf("execsim: invalid resources %v", r)
	}
	switch st.Kind {
	case dag.ShuffleJoin:
		reducers := p.ForcedReducers
		if reducers <= 0 {
			reducers = st.AutoReducers()
		}
		return p.SMJTime(st.ShuffleGB, r, reducers), nil
	case dag.BroadcastJoin:
		return p.BHJTime(st.HashGB, st.ProbeGB, len(st.Hashes), r)
	}
	return 0, fmt.Errorf("execsim: unknown stage kind %v", st.Kind)
}

// StageResult records one executed stage.
type StageResult struct {
	Stage     dag.Stage
	Resources plan.Resources
	Seconds   float64
	Usage     units.GBSeconds
}

// Result is the outcome of executing a plan.
type Result struct {
	Seconds float64
	Usage   units.GBSeconds
	Money   units.Dollars
	Stages  []StageResult
}

// Execute runs a fully resource-annotated plan: each join stage uses the
// Res annotation of its top operator. Stages run serially in dependency
// order (left-deep plans have a serial critical path).
func (p Params) Execute(root *plan.Node, pricing cost.Pricing) (*Result, error) {
	return p.execute(root, nil, pricing)
}

// ExecuteUniform runs a plan with a single resource configuration for every
// stage — how Hive and Spark execute today, with one container size and one
// degree of parallelism for the whole job.
func (p Params) ExecuteUniform(root *plan.Node, r plan.Resources, pricing cost.Pricing) (*Result, error) {
	return p.execute(root, &r, pricing)
}

func (p Params) execute(root *plan.Node, uniform *plan.Resources, pricing cost.Pricing) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	stages, err := dag.Build(root)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, st := range stages {
		r := st.Top.Res
		if uniform != nil {
			r = *uniform
		}
		if r.IsZero() {
			return nil, fmt.Errorf("execsim: stage over %v has no resource configuration", st.Top.Relations())
		}
		secs, err := p.StageTime(&st, r)
		if err != nil {
			return nil, err
		}
		usage := cost.StageUsage(r, secs)
		res.Stages = append(res.Stages, StageResult{Stage: st, Resources: r, Seconds: secs, Usage: usage})
		res.Seconds += secs
		res.Usage += usage
	}
	res.Money = pricing.DollarPerGBSecond.Over(res.Usage)
	return res, nil
}

// JoinTime simulates one two-input join directly from input sizes: ssGB is
// the smaller (build) side and lsGB the larger side. This is the primitive
// behind the Section III single-join sweeps.
func (p Params) JoinTime(algo plan.JoinAlgo, ssGB, lsGB float64, r plan.Resources) (float64, error) {
	if ssGB <= 0 || lsGB <= 0 {
		return 0, fmt.Errorf("execsim: non-positive input sizes %v/%v", ssGB, lsGB)
	}
	if ssGB > lsGB {
		ssGB, lsGB = lsGB, ssGB
	}
	switch algo {
	case plan.SMJ:
		reducers := p.ForcedReducers
		if reducers <= 0 {
			reducers = dag.AutoReducers(ssGB + lsGB)
		}
		return p.SMJTime(ssGB+lsGB, r, reducers), nil
	case plan.BHJ:
		return p.BHJTime(ssGB, lsGB, 1, r)
	}
	return 0, fmt.Errorf("execsim: unknown join algorithm %v", algo)
}

// BestJoin returns the faster implementation for the given inputs and
// resources, with its time. An implementation that OOMs is excluded; if
// both fail the error is returned.
func (p Params) BestJoin(ssGB, lsGB float64, r plan.Resources) (plan.JoinAlgo, float64, error) {
	smj, errS := p.JoinTime(plan.SMJ, ssGB, lsGB, r)
	bhj, errB := p.JoinTime(plan.BHJ, ssGB, lsGB, r)
	switch {
	case errS == nil && errB == nil:
		if bhj < smj {
			return plan.BHJ, bhj, nil
		}
		return plan.SMJ, smj, nil
	case errS == nil:
		return plan.SMJ, smj, nil
	case errB == nil:
		return plan.BHJ, bhj, nil
	}
	return plan.SMJ, 0, errS
}

// SwitchPoint finds, by bisection, the largest smaller-input size in
// [loGB, hiGB] at which BHJ is still at least as fast as SMJ (and fits in
// memory) against a fixed larger side. It returns loGB when BHJ never wins
// and hiGB when it always wins — the Figures 4, 7 and 9 primitive.
func (p Params) SwitchPoint(lsGB float64, r plan.Resources, loGB, hiGB float64) float64 {
	bhjWins := func(ss float64) bool {
		algo, _, err := p.BestJoin(ss, lsGB, r)
		return err == nil && algo == plan.BHJ
	}
	if !bhjWins(loGB) {
		return loGB
	}
	if bhjWins(hiGB) {
		return hiGB
	}
	lo, hi := loGB, hiGB
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if bhjWins(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
