package core

import (
	"sync"
	"sync/atomic"

	"raqo/internal/optimizer"
	"raqo/internal/plan"
)

// memoKey identifies one operator-costing problem: the cost model, the
// operator's data characteristic (exact bits of the smaller input size), and
// the coster context fingerprint (conditions, fixed configuration, engine —
// see Coster.fingerprint). Two joins with the same key have provably the
// same cost and resource assignment under a deterministic resource planner.
type memoKey struct {
	model string
	bits  uint64
	ctx   uint64
}

// memoEntry is one memoized costing outcome. Errors are memoized too (an
// infeasible broadcast stays infeasible for the same key), with pruned
// recording whether the error counts against Coster.Pruned.
type memoEntry struct {
	res    plan.Resources
	oc     optimizer.OpCost
	err    error
	pruned bool
}

type memoFlight struct {
	done  chan struct{}
	entry memoEntry
}

// CostMemo memoizes operator costings across the candidate sub-plans of one
// optimization — and, when shared via Options.MemoizeCosts, across queries
// and Reoptimize calls under unchanged conditions. Concurrent computations
// of the same key are deduplicated singleflight-style, so the inner
// resource planner runs exactly once per distinct key no matter how many
// planning calls race on it; that keeps evaluation counters deterministic
// under OptimizeBatch. Safe for concurrent use.
type CostMemo struct {
	mu      sync.Mutex
	entries map[memoKey]memoEntry   // guarded by mu
	flights map[memoKey]*memoFlight // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCostMemo returns an empty memo.
func NewCostMemo() *CostMemo { return &CostMemo{} }

// do returns the memoized entry for k, computing it via compute on the
// first call. The second return reports whether this was a hit (including
// waiting on a concurrent leader's in-flight computation).
func (m *CostMemo) do(k memoKey, compute func() memoEntry) (memoEntry, bool) {
	m.mu.Lock()
	if e, ok := m.entries[k]; ok {
		m.mu.Unlock()
		m.hits.Add(1)
		return e, true
	}
	if fl, ok := m.flights[k]; ok {
		m.mu.Unlock()
		<-fl.done
		m.hits.Add(1)
		return fl.entry, true
	}
	fl := &memoFlight{done: make(chan struct{})}
	if m.flights == nil {
		m.flights = make(map[memoKey]*memoFlight)
	}
	m.flights[k] = fl
	m.mu.Unlock()

	m.misses.Add(1)
	e := compute()
	fl.entry = e

	m.mu.Lock()
	delete(m.flights, k)
	if m.entries == nil {
		m.entries = make(map[memoKey]memoEntry)
	}
	m.entries[k] = e
	m.mu.Unlock()
	close(fl.done)
	return e, false
}

// Hits returns the number of memo hits (including coalesced waiters).
func (m *CostMemo) Hits() int64 { return m.hits.Load() }

// Misses returns the number of computations actually run.
func (m *CostMemo) Misses() int64 { return m.misses.Load() }

// Size returns the number of memoized keys.
func (m *CostMemo) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Reset drops every memoized entry (call when conditions change out from
// under a shared memo; the context fingerprint already isolates different
// conditions, so Reset is about memory, not correctness).
func (m *CostMemo) Reset() {
	m.mu.Lock()
	m.entries = nil
	m.mu.Unlock()
}
