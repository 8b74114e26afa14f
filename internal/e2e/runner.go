package e2e

import (
	"fmt"

	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/units"
	"raqo/internal/workload"
)

// QueryOutcome records one query's end-to-end result under a strategy.
type QueryOutcome struct {
	Name    string
	Plan    *plan.Node
	Seconds float64
	Usage   units.GBSeconds
	Money   units.Dollars
}

// WorkloadReport compares today's two-step practice against RAQO across a
// workload, end to end on the execution simulator.
type WorkloadReport struct {
	Default []QueryOutcome
	RAQO    []QueryOutcome
}

// Totals sums seconds and dollars for one strategy's outcomes.
func Totals(outcomes []QueryOutcome) (seconds float64, money units.Dollars) {
	for _, o := range outcomes {
		seconds += o.Seconds
		money += o.Money
	}
	return seconds, money
}

// RunComparison executes every query twice on the engine simulator:
//
//   - Default practice: the engine's rule-based plan (the 10 MB broadcast
//     threshold on a fixed left-deep order) at a user-guessed uniform
//     resource configuration — query optimization blind to resources,
//     resources blind to the plan.
//   - RAQO: the joint optimizer's plan with per-operator resources under
//     the given cluster conditions.
//
// This is the end-to-end version of the paper's Figure 2 argument, over a
// whole workload rather than one join.
func RunComparison(engine execsim.Params, opt *core.Optimizer, queries map[string]*plan.Query,
	guess plan.Resources, pricing cost.Pricing) (*WorkloadReport, error) {
	if opt == nil {
		return nil, fmt.Errorf("workload: nil optimizer")
	}
	rule := core.NewDefaultRule(engine.Name)
	report := &WorkloadReport{}
	for _, name := range workload.QueryNames {
		q, ok := queries[name]
		if !ok {
			continue
		}
		// Default practice: left-deep in the syntactic order a user would
		// write (any connected order), rule-chosen operators, guessed
		// uniform resources.
		base, err := plan.LeftDeep(q.Schema, plan.SMJ, connectedOrder(q)...)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %w", name, err)
		}
		defPlan, err := core.ApplyRule(q.Schema, base, rule, guess)
		if err != nil {
			return nil, err
		}
		defRes, err := engine.ExecuteUniform(defPlan, guess, pricing)
		if err != nil {
			return nil, fmt.Errorf("workload: %s default execution: %w", name, err)
		}
		report.Default = append(report.Default, QueryOutcome{
			Name: name, Plan: defPlan, Seconds: defRes.Seconds, Usage: defRes.Usage, Money: defRes.Money,
		})

		// RAQO joint plan.
		d, err := opt.Optimize(q)
		if err != nil {
			return nil, fmt.Errorf("workload: %s RAQO: %w", name, err)
		}
		raqoRes, err := engine.Execute(d.Plan, pricing)
		if err != nil {
			return nil, fmt.Errorf("workload: %s RAQO execution: %w", name, err)
		}
		report.RAQO = append(report.RAQO, QueryOutcome{
			Name: name, Plan: d.Plan, Seconds: raqoRes.Seconds, Usage: raqoRes.Usage, Money: raqoRes.Money,
		})
	}
	return report, nil
}

// connectedOrder arranges a query's relations so every left-deep prefix is
// connected: start from the first relation and repeatedly append the
// lexicographically smallest joinable remaining one.
func connectedOrder(q *plan.Query) []string {
	order := []string{q.Rels[0]}
	in := map[string]bool{q.Rels[0]: true}
	for len(order) < len(q.Rels) {
		next := ""
		for _, cand := range q.Rels {
			if in[cand] {
				continue
			}
			joinable := false
			for _, have := range order {
				if q.Schema.Joinable(have, cand) {
					joinable = true
					break
				}
			}
			if joinable && (next == "" || cand < next) {
				next = cand
			}
		}
		if next == "" {
			// Cannot happen for a valid (connected) query.
			return q.Rels
		}
		in[next] = true
		order = append(order, next)
	}
	return order
}
