package core

import (
	"context"
	"fmt"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/resource"
)

// This file implements incremental re-optimization: the hot path behind
// adaptive RAQO when cluster conditions drift between admissions. A full
// joint optimization re-runs the whole DP; under a workload arbiter the
// conditions mostly oscillate over a small set of values (the pool's free
// count), so most re-optimizations can be answered from a memo of past
// decisions, and small restrictions of the conditions can often be
// validated against the cached plan by re-probing only its own operators.
//
// Soundness of the patch path: a patch is attempted only when the new
// conditions are a *restriction* of the cached decision's conditions
// (same grid, smaller maxima, within the validity envelope). Restricting
// the conditions can only shrink every operator's feasible resource set,
// so no candidate sub-plan anywhere in the search space gets cheaper; if
// re-probing shows every operator of the cached optimal plan is assigned
// exactly the same resources as before (hence the same cost), the cached
// plan remains optimal and is returned as-is. Any probe mismatch, any
// infeasibility, or any condition change outside the envelope falls back
// to a full re-plan. The equivalence is additionally enforced empirically
// by the TPC-H determinism suite, which asserts incremental decisions are
// bit-identical to from-scratch planning.

// DefaultReoptEnvelope is the default validity envelope of incremental
// re-optimization: the largest relative shrink of a condition bound that
// may be patched rather than fully re-planned.
const DefaultReoptEnvelope = 0.25

// defaultMaxExact bounds the per-query exact-conditions memo (FIFO
// eviction). The arbiter's conditions take at most MaxContainers distinct
// values, so the default comfortably covers the working set.
const defaultMaxExact = 128

// ReoptSource says how an incremental re-optimization was answered.
type ReoptSource int

// Re-optimization answer sources.
const (
	// ReoptFull is a from-scratch joint optimization.
	ReoptFull ReoptSource = iota
	// ReoptExact is a memo hit: these exact conditions were planned before
	// under the live model set.
	ReoptExact
	// ReoptPatched reused the cached plan after re-probing only its own
	// operators under the new conditions.
	ReoptPatched
)

// String names the source.
func (s ReoptSource) String() string {
	switch s {
	case ReoptFull:
		return "full"
	case ReoptExact:
		return "exact"
	case ReoptPatched:
		return "patched"
	}
	return fmt.Sprintf("ReoptSource(%d)", int(s))
}

// IncrementalStats counts how incremental re-optimizations were answered.
type IncrementalStats struct {
	// Full counts from-scratch plans (first sight of a query, envelope
	// exceeded, or patch fallback).
	Full int64
	// Exact counts exact-conditions memo hits.
	Exact int64
	// Patched counts decisions reused after operator re-probing.
	Patched int64
	// Fallback counts patch attempts that failed validation and fell back
	// to a full plan (a subset of Full).
	Fallback int64
}

// incEntry is the per-query re-optimization state. It is valid only for
// the model set it was built under; a model swap (online recalibration)
// discards it wholesale.
type incEntry struct {
	models *cost.Models
	exact  map[cluster.Conditions]*Decision
	order  []cluster.Conditions // FIFO eviction order for exact
	// last is the most recent fully-planned decision and the conditions it
	// was planned under — the patch baseline.
	last     *Decision
	lastCond cluster.Conditions
}

// Incremental answers repeated joint optimizations of the same queries
// under drifting cluster conditions, reusing past decisions whenever that
// is provably equivalent to planning from scratch. Decisions returned on
// the memo paths are shared; callers must treat them as immutable (clone
// the plan before annotating it).
//
// An Incremental is not safe for concurrent use: the arbiter drives it
// from its single-threaded event loop, and the server serializes /v1/submit
// on the arbiter mutex. It never changes the wrapped optimizer's
// conditions, so several Incrementals may share one Optimizer.
type Incremental struct {
	opt *Optimizer
	// envelope is the validity envelope (relative shrink) of the patch
	// path; see DefaultReoptEnvelope.
	envelope float64
	maxExact int
	// entries keys per-query state by the *plan.Query pointer: workload
	// queries are long-lived registered objects, and pointer identity is
	// what the arbiter's own caches key by too.
	entries map[*plan.Query]*incEntry
	joinBuf []*plan.Node
	stats   IncrementalStats
}

// NewIncremental wraps an optimizer with incremental re-optimization.
// envelope <= 0 selects DefaultReoptEnvelope.
func NewIncremental(opt *Optimizer, envelope float64) *Incremental {
	if envelope <= 0 {
		envelope = DefaultReoptEnvelope
	}
	return &Incremental{
		opt:      opt,
		envelope: envelope,
		maxExact: defaultMaxExact,
		entries:  make(map[*plan.Query]*incEntry),
	}
}

// Optimizer returns the wrapped optimizer.
func (inc *Incremental) Optimizer() *Optimizer { return inc.opt }

// Stats returns the answer-source counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Optimize is OptimizeCtx with background context.
func (inc *Incremental) Optimize(q *plan.Query, cond cluster.Conditions) (*Decision, ReoptSource, error) {
	return inc.OptimizeCtx(context.Background(), q, cond)
}

// OptimizeCtx jointly optimizes q under cond, answering from the
// exact-conditions memo or the patch path when provably equivalent, and
// planning from scratch otherwise. The returned decision is shared with
// the memo on non-Full sources.
func (inc *Incremental) OptimizeCtx(ctx context.Context, q *plan.Query, cond cluster.Conditions) (*Decision, ReoptSource, error) {
	if q == nil {
		return nil, ReoptFull, fmt.Errorf("core: incremental optimize of nil query")
	}
	if err := cond.Validate(); err != nil {
		return nil, ReoptFull, fmt.Errorf("core: incremental conditions: %w", err)
	}
	e := inc.entry(q)
	if d, ok := e.exact[cond]; ok {
		inc.stats.Exact++
		return d, ReoptExact, nil
	}
	if e.last != nil && inc.patchable(e.lastCond, cond) {
		if ok := inc.probePlan(e.last.Plan, cond); ok {
			inc.stats.Patched++
			inc.remember(e, cond, e.last)
			return e.last, ReoptPatched, nil
		}
		inc.stats.Fallback++
	}
	d, err := inc.opt.optimizeUnder(ctx, q, cond)
	if err != nil {
		return nil, ReoptFull, err
	}
	inc.stats.Full++
	inc.remember(e, cond, d)
	e.last, e.lastCond = d, cond
	return d, ReoptFull, nil
}

// entry returns the per-query state valid for the live model set,
// discarding state planned under retired models (the recalibration
// invalidation channel: SetModels swaps the pointer).
func (inc *Incremental) entry(q *plan.Query) *incEntry {
	cur := inc.opt.Models()
	e := inc.entries[q]
	if e == nil || e.models != cur {
		e = &incEntry{models: cur, exact: make(map[cluster.Conditions]*Decision)}
		inc.entries[q] = e
	}
	return e
}

// remember memoizes d as the decision for cond, evicting FIFO past
// maxExact.
func (inc *Incremental) remember(e *incEntry, cond cluster.Conditions, d *Decision) {
	if _, ok := e.exact[cond]; !ok {
		if len(e.order) >= inc.maxExact {
			delete(e.exact, e.order[0])
			e.order = e.order[1:]
		}
		e.order = append(e.order, cond)
	}
	e.exact[cond] = d
}

// patchable reports whether new is a within-envelope restriction of old:
// identical grid (minima and steps), maxima no larger, and shrunk by at
// most the envelope fraction. Only then can the cached plan's optimality
// be re-validated by probing its own operators.
//
//raqo:noalloc
func (inc *Incremental) patchable(old, new cluster.Conditions) bool {
	if new == old {
		return false // exact memo already missed: it holds a different decision history
	}
	if new.MinContainers != old.MinContainers || new.ContainerStep != old.ContainerStep ||
		new.MinContainerGB != old.MinContainerGB || new.GBStep != old.GBStep {
		return false
	}
	if new.MaxContainers > old.MaxContainers || new.MaxContainerGB > old.MaxContainerGB {
		return false
	}
	if shrink(float64(old.MaxContainers), float64(new.MaxContainers)) > inc.envelope {
		return false
	}
	if shrink(old.MaxContainerGB, new.MaxContainerGB) > inc.envelope {
		return false
	}
	return true
}

// shrink is the relative reduction from old down to new (both positive,
// new <= old).
//
//raqo:noalloc
func shrink(old, new float64) float64 {
	if old <= 0 {
		return 1
	}
	return (old - new) / old
}

// probePlan re-plans the resources of every operator of a cached plan
// under cond and reports whether all of them are assigned exactly the
// resources the plan already carries — the condition under which the
// cached decision remains valid verbatim.
//
//raqo:noalloc
func (inc *Incremental) probePlan(root *plan.Node, cond cluster.Conditions) bool {
	inc.joinBuf = root.AppendJoins(inc.joinBuf[:0])
	for _, j := range inc.joinBuf {
		r, err := inc.opt.probeOperatorResources(j, cond)
		if err != nil || r != j.Res {
			return false
		}
	}
	return true
}

// probeOperatorResources re-runs resource planning for one join operator
// under hypothetical conditions without mutating the node — the probe
// primitive of the incremental re-optimizer.
func (o *Optimizer) probeOperatorResources(j *plan.Node, cond cluster.Conditions) (plan.Resources, error) {
	model, ok := o.models.Load().For(j.Algo)
	if !ok {
		return plan.Resources{}, fmt.Errorf("core: no cost model for %s", j.Algo)
	}
	c := cond
	if o.opts.Engine != nil && j.Algo == plan.BHJ {
		var err error
		c, err = restrictForBroadcast(o.opts.Engine, cond, j)
		if err != nil {
			return plan.Resources{}, err
		}
	}
	r, _, err := resource.PlanWithCount(o.opts.Resource, model, j.SmallerInputGB(), c)
	return r, err
}
