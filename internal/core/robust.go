package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"raqo/internal/cluster"
	"raqo/internal/plan"
)

// RobustObjective selects how OptimizeRobust aggregates a plan's cost
// across the candidate cluster conditions.
type RobustObjective int

// Robust aggregation objectives.
const (
	// WorstCase minimizes the maximum modeled time across conditions
	// (minimax) — the most conservative choice.
	WorstCase RobustObjective = iota
	// Average minimizes the mean modeled time across conditions.
	Average
)

// String names the objective.
func (o RobustObjective) String() string {
	switch o {
	case WorstCase:
		return "worst-case"
	case Average:
		return "average"
	}
	return fmt.Sprintf("RobustObjective(%d)", int(o))
}

// RobustDecision is the outcome of robust joint optimization.
type RobustDecision struct {
	Plan *plan.Node
	// PerCondition holds the modeled time of the chosen plan's logical/
	// physical shape under each scenario, with resources re-planned for
	// that scenario.
	PerCondition []float64
	// Objective is the aggregated value that was minimized.
	Objective float64
	Elapsed   time.Duration
}

// OptimizeRobust implements the Section VIII "Adaptive RAQO" agenda item:
// "RAQO could also pick plans that are more resilient to changes of cluster
// condition." It optimizes the query under each candidate scenario, then
// evaluates every distinct plan shape under every scenario (re-planning
// resources each time) and returns the shape with the best aggregated cost.
// The returned plan carries the resource annotations for the first
// scenario; use PlanResources to re-annotate when conditions materialize.
func (o *Optimizer) OptimizeRobust(q *plan.Query, scenarios []cluster.Conditions, objective RobustObjective) (*RobustDecision, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("core: robust optimization needs at least one scenario")
	}
	for i, c := range scenarios {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("core: scenario %d: %w", i, err)
		}
	}
	start := time.Now()

	// Candidate shapes: the per-scenario optima.
	type candidate struct {
		tree *plan.Node
		sig  string
	}
	var candidates []candidate
	seen := map[string]bool{}
	for _, c := range scenarios {
		d, err := o.OptimizeUnder(context.Background(), q, c)
		if err != nil {
			return nil, err
		}
		sig := d.Plan.Signature()
		if !seen[sig] {
			seen[sig] = true
			candidates = append(candidates, candidate{tree: d.Plan, sig: sig})
		}
	}

	best := (*RobustDecision)(nil)
	for _, cand := range candidates {
		per := make([]float64, len(scenarios))
		feasible := true
		for i, c := range scenarios {
			oc, _, err := o.priceTree(cand.tree.Clone(), c)
			if err != nil {
				feasible = false
				break
			}
			per[i] = oc.Seconds
		}
		if !feasible {
			continue
		}
		var agg float64
		switch objective {
		case WorstCase:
			for _, v := range per {
				agg = math.Max(agg, v)
			}
		case Average:
			for _, v := range per {
				agg += v
			}
			agg /= float64(len(per))
		default:
			return nil, fmt.Errorf("core: unknown robust objective %v", objective)
		}
		if best == nil || agg < best.Objective {
			// Annotate the winner for the first scenario.
			tree := cand.tree.Clone()
			if _, _, err := o.priceTree(tree, scenarios[0]); err != nil {
				return nil, err
			}
			best = &RobustDecision{Plan: tree, PerCondition: per, Objective: agg}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no plan shape feasible under all %d scenarios", len(scenarios))
	}
	best.Elapsed = time.Since(start)
	return best, nil
}
