// Package cost implements the Section VI-A cost model of the paper: learned
// regression models f(d, r) → C that predict the cost of a join operator
// from its smaller input size and its resource configuration, plan costing
// as the sum of join-operator costs across shuffle boundaries, monetary
// (serverless) pricing, and the multi-objective cost vectors used by the
// randomized multi-objective planner.
package cost

import (
	"fmt"
	"math"
	"sort"

	"raqo/internal/plan"
	"raqo/internal/stats"
	"raqo/internal/units"
)

// Model predicts the cost of one join operator given the smaller input size
// ss (GB), the container size cs (GB) and the number of concurrent
// containers nc. The unit is seconds for time-trained models. Name
// identifies the model — the resource-plan cache keeps one index per model
// name ("for each cost model (e.g., SMJ, BHJ) ... we maintain an in-memory
// index", Section VI-B3).
type Model interface {
	Cost(ss, cs, nc float64) float64
	Name() string
}

// ModelFunc adapts a plain function to Model.
type ModelFunc struct {
	ModelName string
	Fn        func(ss, cs, nc float64) float64
}

// Cost implements Model.
func (f ModelFunc) Cost(ss, cs, nc float64) float64 { return f.Fn(ss, cs, nc) }

// Name implements Model.
func (f ModelFunc) Name() string { return f.ModelName }

// minCost floors predictions: a regression extrapolated outside its training
// region can go negative, and a non-positive stage cost would break the
// hill climb's improvement test.
const minCost = 0.1

// Regression is a Model backed by a linear model over the paper's feature
// vector [ss, ss², cs, cs², nc, nc², cs·nc].
type Regression struct {
	Linear *stats.LinearModel
	name   string
	// Unfloored disables the prediction floor. The paper's own planner ran
	// unfloored — its published coefficients go hugely negative at scale
	// (the Figure 12 cost column shows values near -5e30), which is what
	// makes its hill climbs run to the cluster boundary in the Figure 15(b)
	// scaling experiment. Leave this false for anything that interprets
	// the prediction as an actual time.
	Unfloored bool
}

// NewRegression wraps a fitted linear model as a named cost model.
func NewRegression(name string, lm *stats.LinearModel) *Regression {
	return &Regression{Linear: lm, name: name}
}

// Cost implements Model, flooring the prediction at a small positive value
// unless Unfloored is set.
//
// It is Predict over Features unrolled: the seven terms are added to the
// intercept in Predict's order, so the sum rounds identically, and the
// floor is a comparison that lets NaN through, as math.Max does. (Which
// NaN an unfloored sum of NaNs carries depends on operand order in the
// generated code, which Go leaves unspecified; floored, it is math.Max's.)
func (r *Regression) Cost(ss, cs, nc float64) float64 {
	c := r.Linear.Coef
	if len(c) != stats.NumFeatures {
		return r.Linear.Predict(stats.Features(ss, cs, nc)) // panics: wrong length
	}
	p := r.Linear.Intercept + c[0]*ss + c[1]*(ss*ss) + c[2]*cs + c[3]*(cs*cs) + c[4]*nc + c[5]*(nc*nc) + c[6]*(cs*nc)
	switch {
	case r.Unfloored:
		return p
	case p < minCost:
		return minCost
	case p != p:
		return math.Max(p, minCost) // NaN: the very NaN bits math.Max returns
	}
	return p
}

// Name implements Model.
func (r *Regression) Name() string { return r.name }

// PaperSMJ returns the SMJ cost model with the coefficient vector published
// in Section VI-A of the paper (trained on the authors' Hive profile runs).
func PaperSMJ() *Regression {
	return &Regression{
		name: "paper-smj",
		Linear: &stats.LinearModel{Coef: []float64{
			1.62643613e+01, 9.68774888e-01,
			1.33866542e-02, 1.60639851e-01,
			-7.82618920e-03, -3.91309460e-01,
			1.10387975e-01,
		}},
	}
}

// PaperBHJ returns the BHJ cost model with the coefficient vector published
// in Section VI-A of the paper.
func PaperBHJ() *Regression {
	return &Regression{
		name: "paper-bhj",
		Linear: &stats.LinearModel{Coef: []float64{
			1.00739509e+04, -6.72184592e+02,
			-1.37392901e+01, -1.64871481e+02,
			2.44721676e-02, 1.22360838e+00,
			-1.37319484e+02,
		}},
	}
}

// Profile is one training sample from a profile run of a join operator.
type Profile struct {
	Algo    plan.JoinAlgo
	SS      float64 // smaller input, GB
	CS      float64 // container size, GB
	NC      float64 // concurrent containers
	Seconds float64 // measured stage time
}

// Models maps each join implementation to its cost model: one slot per
// algorithm, indexed by its value.
type Models struct {
	byAlgo []Model
}

// NewModels builds a model set; every algorithm in plan.Algos must be
// covered before costing plans.
func NewModels() *Models {
	return &Models{byAlgo: make([]Model, len(plan.Algos))}
}

// Set registers the model for an algorithm and returns the set for chaining.
func (m *Models) Set(a plan.JoinAlgo, model Model) *Models {
	m.byAlgo[a] = model
	return m
}

// For returns the model for an algorithm.
func (m *Models) For(a plan.JoinAlgo) (Model, bool) {
	if a < 0 || int(a) >= len(m.byAlgo) || m.byAlgo[a] == nil {
		return nil, false
	}
	return m.byAlgo[a], true
}

// PaperModels returns the model set with the paper's published SMJ and BHJ
// coefficients.
func PaperModels() *Models {
	return NewModels().Set(plan.SMJ, PaperSMJ()).Set(plan.BHJ, PaperBHJ())
}

// PaperModelsUnfloored returns the paper's models with the prediction floor
// disabled — the configuration the paper's own planner-performance
// experiments effectively ran with (see Regression.Unfloored).
func PaperModelsUnfloored() *Models {
	smj, bhj := PaperSMJ(), PaperBHJ()
	smj.Unfloored = true
	bhj.Unfloored = true
	return NewModels().Set(plan.SMJ, smj).Set(plan.BHJ, bhj)
}

// Train fits one regression per join algorithm from profile runs, using the
// paper's feature map and ordinary least squares with a tiny ridge for
// numerical robustness. Every algorithm present in the samples gets a
// model; algorithms with no samples are simply absent from the result.
func Train(samples []Profile) (*Models, error) {
	byAlgo := make(map[plan.JoinAlgo][]Profile)
	for _, s := range samples {
		byAlgo[s.Algo] = append(byAlgo[s.Algo], s)
	}
	if len(byAlgo) == 0 {
		return nil, fmt.Errorf("cost: no training samples")
	}
	// Fit in a fixed algorithm order so the first validation error — and
	// the numerical path — never depends on map iteration order.
	algos := make([]plan.JoinAlgo, 0, len(byAlgo))
	for algo := range byAlgo {
		algos = append(algos, algo)
	}
	sort.Slice(algos, func(i, j int) bool { return algos[i] < algos[j] })
	out := NewModels()
	for _, algo := range algos {
		rows := byAlgo[algo]
		if len(rows) < stats.NumFeatures+1 {
			return nil, fmt.Errorf("cost: %s has only %d samples, need at least %d",
				algo, len(rows), stats.NumFeatures+1)
		}
		xs := make([][]float64, len(rows))
		ys := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = stats.Features(r.SS, r.CS, r.NC)
			ys[i] = r.Seconds
		}
		lm, err := stats.Fit(xs, ys, stats.FitOptions{Ridge: 1e-9})
		if err != nil {
			return nil, fmt.Errorf("cost: fitting %s: %w", algo, err)
		}
		out.Set(algo, NewRegression("trained-"+algo.String(), lm))
	}
	return out, nil
}

// OperatorCost returns the modeled cost of a single join operator with the
// given resource configuration.
func (m *Models) OperatorCost(op *plan.Node, r plan.Resources) (float64, error) {
	if op.IsScan() {
		return 0, nil
	}
	mod, ok := m.For(op.Algo)
	if !ok {
		return 0, fmt.Errorf("cost: no model for %s", op.Algo)
	}
	return mod.Cost(op.SmallerInputGB(), r.ContainerGB, float64(r.Containers)), nil
}

// PlanCost returns the total cost of a plan: the sum of the costs of all
// join operators, each evaluated at its own Res annotation (the paper's
// per-operator independent resource decisions, Section VI-B). It errors if
// any join is missing its resource plan.
func (m *Models) PlanCost(p *plan.Node) (float64, error) {
	total := 0.0
	for _, j := range p.Joins() {
		if j.Res.IsZero() {
			return 0, fmt.Errorf("cost: join over %v has no resource plan", j.Relations())
		}
		c, err := m.OperatorCost(j, j.Res)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// Pricing converts reserved resources over time into money, following the
// serverless-analytics model the paper references (pay for container-hours;
// we use GB-seconds as the unit).
type Pricing struct {
	DollarPerGBSecond units.USDPerGBSecond
}

// DefaultPricing is loosely modeled on serverless query pricing; only
// ratios matter for the paper's plots.
func DefaultPricing() Pricing { return Pricing{DollarPerGBSecond: 1e-5} }

// StageUsage returns the GB·s consumed by holding r for the given seconds.
func StageUsage(r plan.Resources, seconds float64) units.GBSeconds {
	return units.GBSeconds(r.TotalGB() * seconds)
}

// StageCost prices a stage's reservation.
func (p Pricing) StageCost(r plan.Resources, seconds float64) units.Dollars {
	return p.DollarPerGBSecond.Over(StageUsage(r, seconds))
}

// PlanMoney returns the modeled monetary cost of a plan: each join stage
// holds its containers for its modeled duration.
func (m *Models) PlanMoney(p *plan.Node, pr Pricing) (units.Dollars, error) {
	var total units.Dollars
	for _, j := range p.Joins() {
		if j.Res.IsZero() {
			return 0, fmt.Errorf("cost: join over %v has no resource plan", j.Relations())
		}
		secs, err := m.OperatorCost(j, j.Res)
		if err != nil {
			return 0, err
		}
		total += pr.StageCost(j.Res, secs)
	}
	return total, nil
}

// Vector is a multi-objective cost: execution time and monetary cost. The
// paper observes both are functions of the query plan p and the resource
// configuration r.
type Vector struct {
	Time  float64       // seconds
	Money units.Dollars // dollars
}

// Dominates reports Pareto dominance: v is no worse in both objectives and
// strictly better in at least one.
func (v Vector) Dominates(o Vector) bool {
	if v.Time > o.Time || v.Money > o.Money {
		return false
	}
	return v.Time < o.Time || v.Money < o.Money
}

// DominatesApprox reports (1+eps)-dominance: v is within a factor (1+eps)
// of o (or better) in both objectives. The randomized multi-objective
// planner keeps a candidate only if no archived plan approximately
// dominates it, which bounds the archive to plans that differ by more than
// the target approximation precision.
func (v Vector) DominatesApprox(o Vector, eps float64) bool {
	f := 1 + eps
	return v.Time <= o.Time*f && float64(v.Money) <= float64(o.Money)*f
}

// Weighted scalarizes the vector; weights must be non-negative.
func (v Vector) Weighted(wTime, wMoney float64) float64 {
	return wTime*v.Time + wMoney*float64(v.Money)
}

// PlanVector computes both objectives for a fully resource-annotated plan.
func (m *Models) PlanVector(p *plan.Node, pr Pricing) (Vector, error) {
	t, err := m.PlanCost(p)
	if err != nil {
		return Vector{}, err
	}
	money, err := m.PlanMoney(p, pr)
	if err != nil {
		return Vector{}, err
	}
	return Vector{Time: t, Money: money}, nil
}
