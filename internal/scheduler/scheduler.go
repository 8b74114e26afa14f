// Package scheduler implements the "interaction with DAG scheduler" agenda
// item of the paper's Section VIII: with RAQO, submitted jobs carry precise
// per-stage resource requests, and the scheduler must decide what to do
// when the exact resources are not available — delay the job, degrade the
// request to what is free, or hand the query back to the optimizer for a
// plan that fits the current conditions.
package scheduler

import (
	"context"
	"fmt"

	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// Policy is what the scheduler does when a stage's requested resources
// exceed what the cluster can currently offer.
type Policy int

// Scheduling policies for infeasible requests.
const (
	// Wait queues the job until the requested resources free up; the wait
	// is charged as queue time (the Figure 1 pathology).
	Wait Policy = iota
	// Degrade clamps the request onto the available conditions and runs
	// with what is free — fast admission, possibly slower execution.
	Degrade
	// Reoptimize hands the query back to RAQO under the available
	// conditions — adaptive RAQO as a scheduler policy.
	Reoptimize
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Wait:
		return "wait"
	case Degrade:
		return "degrade"
	case Reoptimize:
		return "reoptimize"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name as rendered by String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "wait":
		return Wait, nil
	case "degrade":
		return Degrade, nil
	case "reoptimize":
		return Reoptimize, nil
	}
	return 0, fmt.Errorf("scheduler: unknown policy %q", s)
}

// Outcome reports how one job fared through the scheduler.
type Outcome struct {
	Policy Policy
	// QueueSeconds is the simulated wait before the job could start.
	QueueSeconds float64
	// ExecSeconds is the simulated execution time of the plan that
	// actually ran.
	ExecSeconds float64
	// Replanned is true when the Reoptimize policy produced a different
	// joint plan than the submitted one.
	Replanned bool
	// Result is the simulated execution result.
	Result *execsim.Result
}

// TotalSeconds is queue plus execution time.
func (o *Outcome) TotalSeconds() float64 { return o.QueueSeconds + o.ExecSeconds }

// Scheduler admits joint query/resource plans onto a cluster whose
// currently free capacity may be below the conditions the plan was
// optimized for.
type Scheduler struct {
	Engine  execsim.Params
	Pricing cost.Pricing
	// Optimizer is consulted by the Reoptimize policy; required for it.
	Optimizer *core.Optimizer
	// DrainRate approximates how fast queued-for resources free up, in
	// containers per second, when the Wait policy must queue a job.
	DrainRate float64
	// Feedback, when set, receives every execution outcome as a feedback
	// observation — the channel through which scheduled work trains the
	// cost model online. Recording is best-effort: a plan the live model
	// cannot price is simply not recorded, and under the Reoptimize policy
	// the replanning itself already runs against the recalibrated model
	// set (the optimizer reads its models per call).
	Feedback *feedback.Observer
}

// record reports one executed plan to the feedback observer, predicting
// with the live model set when the caller has no planner prediction
// (predictedSeconds <= 0).
func (s *Scheduler) record(root *plan.Node, predictedSeconds float64, predictedMoney units.Dollars, res *execsim.Result) {
	if s.Feedback == nil || res == nil {
		return
	}
	if predictedSeconds <= 0 {
		v, err := s.Feedback.Recal.Models().PlanVector(root, s.Pricing)
		if err != nil {
			return
		}
		predictedSeconds, predictedMoney = v.Time, v.Money
	}
	// Best-effort: an observation the store rejects is dropped, not fatal.
	_, _ = s.Feedback.Record(s.Engine.Name, root, predictedSeconds, predictedMoney, res)
}

// MaxRequested returns the largest per-stage request of a plan — the gang
// size a FIFO cluster must free before the plan can start. It walks the
// tree directly (no operator-slice allocation): it sits on the arbiter's
// per-admission hot path.
func MaxRequested(p *plan.Node) plan.Resources {
	var max plan.Resources
	maxRequested(p, &max)
	return max
}

func maxRequested(n *plan.Node, max *plan.Resources) {
	if n == nil || n.IsScan() {
		return
	}
	maxRequested(n.Left, max)
	maxRequested(n.Right, max)
	if n.Res.Containers > max.Containers {
		max.Containers = n.Res.Containers
	}
	if n.Res.ContainerGB > max.ContainerGB {
		max.ContainerGB = n.Res.ContainerGB
	}
}

// Fits reports whether every stage's request is satisfiable under the
// available conditions. Exported so the workload arbiter applies the same
// admission predicate the one-shot scheduler does. Like MaxRequested it
// recurses instead of materializing the operator list.
func Fits(p *plan.Node, avail cluster.Conditions) bool {
	if p == nil || p.IsScan() {
		return true
	}
	if p.Res.Containers > avail.MaxContainers || p.Res.ContainerGB > avail.MaxContainerGB+1e-9 {
		return false
	}
	return Fits(p.Left, avail) && Fits(p.Right, avail)
}

// ClampClone returns a copy of p with every join's resource request
// clamped onto cond, reusing buf for the join walk (pass nil when not on
// a hot path) and returning the possibly-grown buffer. It is the one
// implementation of the Degrade transformation, shared by the one-shot
// scheduler and the admission engine (internal/cloud).
func ClampClone(p *plan.Node, cond cluster.Conditions, buf []*plan.Node) (*plan.Node, []*plan.Node) {
	clamped := p.Clone()
	buf = clamped.AppendJoins(buf[:0])
	for _, j := range buf {
		j.Res = cond.Clamp(j.Res)
	}
	return clamped, buf
}

// Submit schedules a joint plan under the currently available conditions
// with the given policy. The submitted plan is not modified: Degrade and
// Reoptimize run a copy or a new plan.
func (s *Scheduler) Submit(q *plan.Query, submitted *plan.Node, avail cluster.Conditions, policy Policy) (*Outcome, error) {
	if submitted == nil {
		return nil, fmt.Errorf("scheduler: nil plan")
	}
	if err := avail.Validate(); err != nil {
		return nil, fmt.Errorf("scheduler: available conditions: %w", err)
	}
	if Fits(submitted, avail) {
		res, err := s.Engine.Execute(submitted, s.Pricing)
		if err != nil {
			return nil, err
		}
		s.record(submitted, 0, 0, res)
		return &Outcome{Policy: policy, ExecSeconds: res.Seconds, Result: res}, nil
	}
	switch policy {
	case Wait:
		// The job waits for the missing containers to drain free.
		req := MaxRequested(submitted)
		missing := req.Containers - avail.MaxContainers
		if missing < 0 {
			missing = 0
		}
		rate := s.DrainRate
		if rate <= 0 {
			rate = 0.05 // containers per second: a busy shared cluster
		}
		wait := float64(missing) / rate
		res, err := s.Engine.Execute(submitted, s.Pricing)
		if err != nil {
			return nil, err
		}
		s.record(submitted, 0, 0, res)
		return &Outcome{Policy: policy, QueueSeconds: wait, ExecSeconds: res.Seconds, Result: res}, nil

	case Degrade:
		clamped, _ := ClampClone(submitted, avail, nil)
		res, err := s.Engine.Execute(clamped, s.Pricing)
		if err != nil {
			return nil, err
		}
		s.record(clamped, 0, 0, res)
		return &Outcome{Policy: policy, ExecSeconds: res.Seconds, Result: res}, nil

	case Reoptimize:
		if s.Optimizer == nil {
			return nil, fmt.Errorf("scheduler: Reoptimize policy needs an optimizer")
		}
		if q == nil {
			return nil, fmt.Errorf("scheduler: Reoptimize policy needs the logical query")
		}
		// Conditions are an argument: the optimizer may be shared.
		d, err := s.Optimizer.OptimizeUnder(context.Background(), q, avail)
		if err != nil {
			return nil, err
		}
		res, err := s.Engine.Execute(d.Plan, s.Pricing)
		if err != nil {
			return nil, err
		}
		s.record(d.Plan, d.Time, d.Money, res)
		return &Outcome{
			Policy:      policy,
			ExecSeconds: res.Seconds,
			Replanned:   !d.Plan.Equal(submitted),
			Result:      res,
		}, nil
	}
	return nil, fmt.Errorf("scheduler: unknown policy %v", policy)
}
