// Package scheduler holds the vocabulary of the paper's Section VIII
// "interaction with DAG scheduler" agenda item: with RAQO, submitted jobs
// carry precise per-stage resource requests, and when the exact resources
// are not available the job is delayed, its request degraded to what is
// free, or the query handed back to the optimizer for a plan that fits the
// current conditions. The policies, the admission predicate and the
// Degrade transformation live here; the one model that applies them, with
// its clock, queue and pool, is the admission engine (internal/cloud).
package scheduler

import (
	"fmt"

	"raqo/internal/cluster"
	"raqo/internal/plan"
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
// available conditions: the admission engine's predicate. Like
// MaxRequested it recurses instead of materializing the operator list.
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
// implementation of the Degrade transformation, the admission engine's
// (internal/cloud).
func ClampClone(p *plan.Node, cond cluster.Conditions, buf []*plan.Node) (*plan.Node, []*plan.Node) {
	clamped := p.Clone()
	buf = clamped.AppendJoins(buf[:0])
	for _, j := range buf {
		j.Res = cond.Clamp(j.Res)
	}
	return clamped, buf
}
