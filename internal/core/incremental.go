package core

import (
	"context"
	"fmt"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
)

// This file implements re-optimization under drifting cluster conditions:
// the hot path behind adaptive RAQO when the conditions move between
// admissions. A joint optimization re-runs the whole DP; under a workload
// arbiter the conditions oscillate over a small set of values (the pool's
// free count), so most re-optimizations — and every submission after a
// query's first — are answered from a memo of past decisions keyed by the
// exact conditions. Anything the memo has not seen under the live model
// set is planned from scratch, as the paper does (§IV, §VIII).

// defaultMaxExact bounds the per-query exact-conditions memo (FIFO
// eviction). The arbiter's conditions take at most MaxContainers distinct
// values, so the default comfortably covers the working set.
const defaultMaxExact = 128

// ReoptSource says how a re-optimization was answered.
type ReoptSource int

// Re-optimization answer sources.
const (
	// ReoptFull is a from-scratch joint optimization.
	ReoptFull ReoptSource = iota
	// ReoptExact is a memo hit: these exact conditions were planned before
	// under the live model set.
	ReoptExact
)

// String names the source.
func (s ReoptSource) String() string {
	switch s {
	case ReoptFull:
		return "full"
	case ReoptExact:
		return "exact"
	}
	return fmt.Sprintf("ReoptSource(%d)", int(s))
}

// IncrementalStats counts how re-optimizations were answered.
type IncrementalStats struct {
	// Full counts from-scratch plans (conditions not in the memo).
	Full int64
	// Exact counts exact-conditions memo hits.
	Exact int64
}

// incEntry is the per-query memo. It is valid only for the model set it
// was built under; a model swap (online recalibration) discards it
// wholesale.
type incEntry struct {
	models *cost.Models
	exact  map[cluster.Conditions]*memoized
	order  []cluster.Conditions // FIFO eviction order for exact
	// byDecision finds the record of every decision in exact, evicted
	// with it: Execute and Clamp are handed the decision, not its
	// conditions.
	byDecision map[*Decision]*memoized
}

// memoized is one decision the memo holds and what was derived from it:
// its simulated execution once Execute has run it, and its Degrade clamps
// by the exact conditions each was clamped onto. Evicting the record
// drops both.
type memoized struct {
	d      *Decision
	run    *execution
	clamps map[cluster.Conditions]*clamp
}

// execution is one simulated execution's answer.
type execution struct {
	res *execsim.Result
	err error
}

// clamp is one Degrade clamp of a memoized decision's plan: the clamped
// plan as a decision without a prediction, and its execution.
type clamp struct {
	d *Decision
	execution
}

// Incremental answers repeated joint optimizations of the same queries
// under drifting cluster conditions, returning the memoized decision when
// the exact conditions were planned before under the live models. Memoized
// decisions are shared; callers must treat them as immutable (clone the
// plan before annotating it).
//
// An Incremental is not safe for concurrent use: the arbiter drives it
// from its single-threaded event loop, and the server serializes /v1/submit
// on the arbiter mutex. It never changes the wrapped optimizer's
// conditions, so several Incrementals may share one Optimizer.
type Incremental struct {
	opt      *Optimizer
	maxExact int
	// entries keys per-query state by the *plan.Query pointer: workload
	// queries are long-lived registered objects.
	entries map[*plan.Query]*incEntry
	stats   IncrementalStats
	joinBuf []*plan.Node // reused by Clamp's join walk
}

// NewIncremental wraps an optimizer with the exact-conditions memo.
func NewIncremental(opt *Optimizer) *Incremental {
	return &Incremental{
		opt:      opt,
		maxExact: defaultMaxExact,
		entries:  make(map[*plan.Query]*incEntry),
	}
}

// Stats returns the answer-source counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Optimize is OptimizeCtx with background context.
func (inc *Incremental) Optimize(q *plan.Query, cond cluster.Conditions) (*Decision, ReoptSource, error) {
	return inc.OptimizeCtx(context.Background(), q, cond)
}

// OptimizeCtx jointly optimizes q under cond, answering from the
// exact-conditions memo when it can and planning from scratch otherwise.
// The returned decision is shared with the memo.
func (inc *Incremental) OptimizeCtx(ctx context.Context, q *plan.Query, cond cluster.Conditions) (*Decision, ReoptSource, error) {
	if q == nil {
		return nil, ReoptFull, fmt.Errorf("core: incremental optimize of nil query")
	}
	e := inc.entry(q)
	if m, ok := e.exact[cond]; ok {
		inc.stats.Exact++
		return m.d, ReoptExact, nil
	}
	d, err := inc.opt.OptimizeUnder(ctx, q, cond)
	if err != nil {
		return nil, ReoptFull, err
	}
	inc.stats.Full++
	if len(e.order) >= inc.maxExact {
		delete(e.byDecision, e.exact[e.order[0]].d)
		delete(e.exact, e.order[0])
		e.order = e.order[1:]
	}
	m := &memoized{d: d}
	e.order = append(e.order, cond)
	e.exact[cond] = m
	e.byDecision[d] = m
	return d, ReoptFull, nil
}

// record returns d's record when d is a decision of q's live memo.
func (inc *Incremental) record(q *plan.Query, d *Decision) *memoized {
	if e := inc.entries[q]; e != nil && e.models == inc.opt.Models() {
		return e.byDecision[d]
	}
	return nil
}

// Execute returns engine's simulated execution of d, a decision this
// memo answered for q, at pricing. A decision still in the live memo runs
// once: its result (or error) is kept beside it, evicted with it and
// dropped with it on a model swap, and every later call returns the same
// *execsim.Result, which callers must treat as immutable. Any other
// decision runs fresh. Execution is a pure function of the plan, the
// engine and the pricing, so a caller must pass the same engine and
// pricing on every call to one Incremental.
func (inc *Incremental) Execute(q *plan.Query, d *Decision, engine execsim.Params, pricing cost.Pricing) (*execsim.Result, error) {
	m := inc.record(q, d)
	if m != nil && m.run != nil {
		return m.run.res, m.run.err
	}
	res, err := engine.Execute(d.Plan, pricing)
	if m != nil {
		m.run = &execution{res: res, err: err}
	}
	return res, err
}

// Clamp returns d's plan with every join's request clamped onto cond
// (scheduler.ClampClone) — the Degrade transformation — as a decision
// without a planner prediction (Time 0), and engine's simulated execution
// of it at pricing. For a decision still in the live memo each cond is
// clamped and run once: the clamp is kept in the decision's record,
// evicted with it and dropped with it on a model swap, and later calls
// return the same *Decision and *execsim.Result, which callers must treat
// as immutable. Any other decision clamps fresh. A record keeps at most
// maxExact clamps and starts over when full. As for Execute, a caller
// passes the same engine and pricing on every call.
func (inc *Incremental) Clamp(q *plan.Query, d *Decision, cond cluster.Conditions, engine execsim.Params, pricing cost.Pricing) (*Decision, *execsim.Result, error) {
	m := inc.record(q, d)
	if m != nil {
		if c, ok := m.clamps[cond]; ok {
			return c.d, c.res, c.err
		}
	}
	clamped, buf := scheduler.ClampClone(d.Plan, cond, inc.joinBuf)
	inc.joinBuf = buf
	c := &clamp{d: &Decision{Plan: clamped}}
	c.res, c.err = engine.Execute(clamped, pricing)
	if m != nil {
		if m.clamps == nil {
			m.clamps = make(map[cluster.Conditions]*clamp)
		} else if len(m.clamps) >= inc.maxExact {
			clear(m.clamps)
		}
		m.clamps[cond] = c
	}
	return c.d, c.res, c.err
}

// entry returns the per-query memo valid for the live model set,
// discarding state planned under retired models (the recalibration
// invalidation channel: SetModels swaps the pointer).
func (inc *Incremental) entry(q *plan.Query) *incEntry {
	cur := inc.opt.Models()
	e := inc.entries[q]
	if e == nil || e.models != cur {
		e = &incEntry{models: cur, exact: make(map[cluster.Conditions]*memoized), byDecision: make(map[*Decision]*memoized)}
		inc.entries[q] = e
	}
	return e
}
