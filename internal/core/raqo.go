package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/optimizer/selinger"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/units"
)

// PlannerKind selects the query-planning algorithm RAQO integrates with.
type PlannerKind int

// Supported query planners (the two prototypes of Section VII-A).
const (
	// Selinger is the traditional System R bottom-up left-deep planner.
	Selinger PlannerKind = iota
	// FastRandomized is the randomized multi-objective planner.
	FastRandomized
)

// String names the planner kind.
func (k PlannerKind) String() string {
	switch k {
	case Selinger:
		return "selinger"
	case FastRandomized:
		return "fast-randomized"
	}
	return fmt.Sprintf("PlannerKind(%d)", int(k))
}

// Options configures an Optimizer. Zero values select sensible defaults:
// Selinger planning, hill-climbing resource planning, the paper's
// published cost models and default serverless pricing.
type Options struct {
	Planner PlannerKind
	Models  *cost.Models
	Pricing cost.Pricing
	// Resource is the resource planner; nil selects a fresh HillClimb. To
	// enable resource-plan caching pass a *resource.Cache.
	Resource resource.Planner
	// Randomized tunes the FastRandomized planner.
	Randomized randomized.Options
	// Seed drives the randomized planner. Each planning call derives its
	// own private RNG from Seed and the query's relation fingerprint, so
	// planning is reproducible per query and race-free under OptimizeBatch.
	Seed int64
	// Engine, when non-nil, enables memory-aware pruning: broadcast
	// candidates whose build side cannot fit any container allowed by the
	// conditions are pruned from the search instead of being costed.
	Engine *execsim.Params
	// MemoizeCosts enables the per-Optimizer operator-cost memo: repeated
	// (cost model, data characteristic) sub-problems — within one DP and
	// across queries/Reoptimize calls under unchanged conditions — skip
	// CostOperator entirely. Off by default because it changes the
	// ResourceIterations/cache-hit accounting the paper's figures measure.
	// The memo is the cross-call reuse, and it is inexact: it keeps serving
	// a costing after the resource-plan cache behind it would answer
	// differently. Without it, a planning call still reuses the cache's
	// answers within the call (see Coster), but only exactly: never an
	// answer the cache would not give at that instant, and with the
	// accounting unchanged.
	MemoizeCosts bool
}

// Optimizer is the combined resource-and-query optimizer of Figure 8(b):
// it takes declarative queries plus the current cluster conditions and
// emits a joint query/resource plan.
type Optimizer struct {
	opts Options
	cond cluster.Conditions
	memo *CostMemo
	// models is the live cost-model set, read per planning call and
	// swappable at runtime (SetModels) — the online-recalibration channel.
	models atomic.Pointer[cost.Models]
}

// New builds an Optimizer for the given cluster conditions.
func New(cond cluster.Conditions, opts Options) (*Optimizer, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	if opts.Models == nil {
		opts.Models = cost.PaperModels()
	}
	if opts.Pricing.DollarPerGBSecond == 0 {
		opts.Pricing = cost.DefaultPricing()
	}
	if opts.Resource == nil {
		opts.Resource = &resource.HillClimb{}
	}
	o := &Optimizer{opts: opts, cond: cond}
	o.models.Store(opts.Models)
	if opts.MemoizeCosts {
		o.memo = NewCostMemo()
	}
	return o, nil
}

// Models returns the cost-model set planning currently uses.
func (o *Optimizer) Models() *cost.Models { return o.models.Load() }

// SetModels atomically swaps the cost-model set; planning calls that
// already started keep the set they loaded, later calls see the new one.
// The operator-cost memo is reset: its entries are keyed by model name, so
// versioned model names make stale hits impossible, but entries priced
// under a retired model would otherwise linger forever.
func (o *Optimizer) SetModels(m *cost.Models) error {
	if m == nil {
		return fmt.Errorf("core: SetModels given nil model set")
	}
	o.models.Store(m)
	if o.memo != nil {
		o.memo.Reset()
	}
	return nil
}

// Memo returns the operator-cost memo, or nil unless Options.MemoizeCosts
// was set.
func (o *Optimizer) Memo() *CostMemo { return o.memo }

// Planner returns the configured query-planner kind.
func (o *Optimizer) Planner() PlannerKind { return o.opts.Planner }

// Conditions returns the cluster conditions the optimizer currently plans
// against.
func (o *Optimizer) Conditions() cluster.Conditions { return o.cond }

// SetConditions updates the optimizer's view of the cluster — the
// resource-manager feedback channel of the RAQO architecture.
func (o *Optimizer) SetConditions(c cluster.Conditions) error {
	if err := c.Validate(); err != nil {
		return err
	}
	o.cond = c
	return nil
}

// Decision is a joint query and resource plan with its planning metrics.
type Decision struct {
	Plan *plan.Node
	// Time and Money are the modeled execution time and monetary cost of
	// the plan at its chosen per-operator resources.
	Time  float64
	Money units.Dollars
	// PlansConsidered counts candidate sub-plans priced by the query
	// planner; ResourceIterations counts resource configurations explored
	// (the Figures 12-14 metrics).
	PlansConsidered    int
	ResourceIterations int64
	// Elapsed is the planner wall-clock time.
	Elapsed time.Duration
}

func (o *Optimizer) coster(rp resource.Planner, fixed plan.Resources, cond cluster.Conditions) *Coster {
	return &Coster{
		Models:    o.models.Load(),
		Pricing:   o.opts.Pricing,
		Resources: rp,
		Fixed:     fixed,
		Cond:      cond,
		Engine:    o.opts.Engine,
		Memo:      o.memo,
	}
}

// seedFor derives a per-query seed from Options.Seed and the query's
// relation list (FNV-1a), so concurrent planning calls never share RNG
// state yet every run of the same query under the same Seed reproduces.
func (o *Optimizer) seedFor(q *plan.Query) int64 {
	h := uint64(14695981039346656037)
	for _, rel := range q.Rels {
		for i := 0; i < len(rel); i++ {
			h = (h ^ uint64(rel[i])) * 1099511628211
		}
		h = (h ^ 0x1f) * 1099511628211 // relation separator
	}
	return o.opts.Seed ^ int64(h)
}

func (o *Optimizer) planner(ctx context.Context, c optimizer.OperatorCoster, q *plan.Query) optimizer.Planner {
	switch o.opts.Planner {
	case FastRandomized:
		return &randomized.Planner{Coster: c, Opts: o.opts.Randomized, Seed: o.seedFor(q), Ctx: ctx}
	default:
		return &selinger.Planner{Coster: c, Ctx: ctx}
	}
}

func (o *Optimizer) run(ctx context.Context, q *plan.Query, c *Coster) (*Decision, error) {
	c.beginCall()
	defer c.endCall()
	start := time.Now()
	res, err := o.planner(ctx, c, q).Plan(q)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	// The coster attributes resource iterations to its own calls exactly
	// (resource.PlanWithCount), so concurrent queries sharing one resource
	// planner or cache don't bleed into each other's metrics.
	iters := c.ResourceIters()
	return &Decision{
		Plan:               res.Plan,
		Time:               res.Cost.Seconds,
		Money:              res.Cost.Money,
		PlansConsidered:    res.PlansConsidered,
		ResourceIterations: iters,
		Elapsed:            elapsed,
	}, nil
}

// Optimize jointly picks the query plan and the per-operator resource
// configuration: the (p, r) mode, "useful when there are abundant or even
// dedicated resources".
func (o *Optimizer) Optimize(q *plan.Query) (*Decision, error) {
	return o.OptimizeCtx(context.Background(), q)
}

// OptimizeCtx is Optimize with cancellation: the planner's search loop
// observes ctx and returns ctx's error promptly after cancellation, so an
// abandoned request stops consuming CPU.
func (o *Optimizer) OptimizeCtx(ctx context.Context, q *plan.Query) (*Decision, error) {
	return o.OptimizeUnder(ctx, q, o.cond)
}

// OptimizeUnder is the joint optimization under explicit conditions. It
// touches no mutable optimizer state, so callers planning under different
// conditions (Incremental, OptimizeRobust, Reoptimize, the scheduler) can
// share one Optimizer.
func (o *Optimizer) OptimizeUnder(ctx context.Context, q *plan.Query, cond cluster.Conditions) (*Decision, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	return o.run(ctx, q, o.coster(o.opts.Resource, plan.Resources{}, cond))
}

// OptimizeFixed is the plain QO baseline: query planning only, pricing
// every operator at the given fixed configuration.
func (o *Optimizer) OptimizeFixed(q *plan.Query, r plan.Resources) (*Decision, error) {
	return o.OptimizeFixedCtx(context.Background(), q, r)
}

// OptimizeFixedCtx is OptimizeFixed with cancellation.
func (o *Optimizer) OptimizeFixedCtx(ctx context.Context, q *plan.Query, r plan.Resources) (*Decision, error) {
	if !o.cond.Contains(r) {
		return nil, fmt.Errorf("core: fixed configuration %v outside cluster conditions %v", r, o.cond)
	}
	return o.run(ctx, q, o.coster(nil, r, o.cond))
}

// OptimizeForBudget is the r ⇒ p mode: "in case of constrained resources,
// e.g., with multiple tenants each having their quota, we can pick the
// best plan for a given resource budget". The search space is intersected
// with the tenant quota before planning.
func (o *Optimizer) OptimizeForBudget(q *plan.Query, maxContainers int, maxContainerGB float64) (*Decision, error) {
	return o.OptimizeForBudgetCtx(context.Background(), q, maxContainers, maxContainerGB)
}

// OptimizeForBudgetCtx is OptimizeForBudget with cancellation.
func (o *Optimizer) OptimizeForBudgetCtx(ctx context.Context, q *plan.Query, maxContainers int, maxContainerGB float64) (*Decision, error) {
	restricted, err := o.cond.Restrict(maxContainers, maxContainerGB)
	if err != nil {
		return nil, err
	}
	return o.run(ctx, q, o.coster(o.opts.Resource, plan.Resources{}, restricted))
}

// PlanResources is the p ⇒ (r, c) mode: the user is happy with a given
// plan's shape and asks only for resources (and the resulting cost). The
// plan's operators are annotated in place.
func (o *Optimizer) PlanResources(p *plan.Node) (*Decision, error) {
	c := o.coster(o.opts.Resource, plan.Resources{}, o.cond)
	c.beginCall()
	defer c.endCall()
	start := time.Now()
	oc, err := optimizer.PlanCost(c, p)
	if err != nil {
		return nil, err
	}
	return &Decision{
		Plan:               p,
		Time:               oc.Seconds,
		Money:              oc.Money,
		ResourceIterations: c.ResourceIters(),
		Elapsed:            time.Since(start),
	}, nil
}

// OptimizeForPrice is the c ⇒ (p, r) mode: find the fastest joint plan
// whose modeled monetary cost stays within the budget. It always uses the
// randomized multi-objective planner to obtain a Pareto archive over
// (time, money) and picks the fastest entry under budget.
func (o *Optimizer) OptimizeForPrice(q *plan.Query, budget units.Dollars) (*Decision, error) {
	return o.OptimizeForPriceCtx(context.Background(), q, budget)
}

// OptimizeForPriceCtx is OptimizeForPrice with cancellation.
func (o *Optimizer) OptimizeForPriceCtx(ctx context.Context, q *plan.Query, budget units.Dollars) (*Decision, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("core: price budget must be positive, got %v", budget)
	}
	c := o.coster(o.opts.Resource, plan.Resources{}, o.cond)
	c.beginCall()
	defer c.endCall()
	rp := &randomized.Planner{Coster: c, Opts: o.opts.Randomized, Seed: o.seedFor(q), Ctx: ctx}
	start := time.Now()
	archive, considered, err := rp.PlanPareto(q)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	var best *randomized.ParetoEntry
	for i := range archive {
		e := &archive[i]
		if e.Cost.Money > budget {
			continue
		}
		if best == nil || e.Cost.Seconds < best.Cost.Seconds {
			best = e
		}
	}
	if best == nil {
		cheapest := archive[0]
		for _, e := range archive[1:] {
			if e.Cost.Money < cheapest.Cost.Money {
				cheapest = e
			}
		}
		return nil, fmt.Errorf("core: no plan within budget %v (cheapest found: %v)", budget, cheapest.Cost.Money)
	}
	// Re-cost so the winner carries its resource annotations.
	if _, err := optimizer.PlanCost(c, best.Plan); err != nil {
		return nil, err
	}
	return &Decision{
		Plan:               best.Plan,
		Time:               best.Cost.Seconds,
		Money:              best.Cost.Money,
		PlansConsidered:    considered,
		ResourceIterations: c.ResourceIters(),
		Elapsed:            elapsed,
	}, nil
}

// Reoptimize implements adaptive RAQO: when the cluster conditions change
// between optimization and execution, re-plan under the new conditions and
// report whether the joint plan actually changed (same plan shape and
// resources mean the execution can proceed untouched).
func (o *Optimizer) Reoptimize(q *plan.Query, prev *Decision, newCond cluster.Conditions) (*Decision, bool, error) {
	if prev == nil || prev.Plan == nil {
		return nil, false, fmt.Errorf("core: no previous decision to re-optimize")
	}
	next, err := o.OptimizeUnder(context.Background(), q, newCond)
	if err != nil {
		return nil, false, err
	}
	return next, !next.Plan.Equal(prev.Plan), nil
}
