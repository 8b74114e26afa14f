package core

import (
	"context"
	"fmt"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
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
	exact  map[cluster.Conditions]*Decision
	order  []cluster.Conditions // FIFO eviction order for exact
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
	if d, ok := e.exact[cond]; ok {
		inc.stats.Exact++
		return d, ReoptExact, nil
	}
	d, err := inc.opt.OptimizeUnder(ctx, q, cond)
	if err != nil {
		return nil, ReoptFull, err
	}
	inc.stats.Full++
	if len(e.order) >= inc.maxExact {
		delete(e.exact, e.order[0])
		e.order = e.order[1:]
	}
	e.order = append(e.order, cond)
	e.exact[cond] = d
	return d, ReoptFull, nil
}

// entry returns the per-query memo valid for the live model set,
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
