package core

import (
	"sync"
	"sync/atomic"

	"raqo/internal/optimizer"
	"raqo/internal/plan"
)

// memoKey identifies one operator-costing problem: the cost model, the
// operator's data characteristic (exact bits of the smaller input size), and
// the coster context, interned by the memo (CostMemo.intern) so keys compare
// it by pointer. Two joins with the same key have provably the same cost and
// resource assignment under a deterministic resource planner.
type memoKey struct {
	model string
	bits  uint64
	ctx   *costerContext
}

// costerContext is everything outside the operator itself that costing
// depends on: the cluster conditions, the fixed configuration, whether a
// resource planner and an engine are present, and the engine's name and
// OOM fraction. Interning compares it whole, so entries from different
// contexts can never collide. Floats are held as their bits, as the
// operator's size is: equal means bit-identical.
type costerContext struct {
	containers [3]int    // Cond.MinContainers, MaxContainers, ContainerStep
	gb         [3]uint64 // Cond.MinContainerGB, MaxContainerGB, GBStep
	fixed      int       // Fixed.Containers
	fixedGB    uint64    // Fixed.ContainerGB
	oomFrac    uint64    // Engine.OOMFrac
	planned    bool      // Resources != nil
	memAware   bool      // Engine != nil
	engine     string    // Engine.Name
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
// across concurrent requests. Safe for concurrent use.
type CostMemo struct {
	mu       sync.Mutex
	contexts map[costerContext]*costerContext // guarded by mu
	entries  map[memoKey]memoEntry            // guarded by mu
	flights  map[memoKey]*memoFlight          // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCostMemo returns an empty memo.
func NewCostMemo() *CostMemo { return &CostMemo{} }

// intern returns the memo's one copy of ctx. A pointer handed out before a
// Reset stays unique to its context, so keys built from it never match
// another context's.
func (m *CostMemo) intern(ctx costerContext) *costerContext {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.contexts[ctx]; ok {
		return p
	}
	if m.contexts == nil {
		m.contexts = make(map[costerContext]*costerContext)
	}
	p := new(costerContext)
	*p = ctx
	m.contexts[ctx] = p
	return p
}

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
// under a shared memo; the key's coster context already isolates different
// conditions, so Reset is about memory, not correctness).
func (m *CostMemo) Reset() {
	m.mu.Lock()
	m.contexts, m.entries = nil, nil
	m.mu.Unlock()
}
