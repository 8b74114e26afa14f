package core

import (
	"sync"
	"sync/atomic"

	"raqo/internal/optimizer"
	"raqo/internal/plan"
)

// memoKey identifies one operator-costing problem: the cost model, the
// operator's data characteristic (exact bits of the smaller input size), and
// the coster context, interned by the memo (CostMemo.acquire) so keys
// compare it by pointer. Two joins with the same key have provably the same
// cost and resource assignment under a deterministic resource planner.
type memoKey struct {
	model string
	bits  uint64
	ctx   *memoContext
}

// memoContext is the memo's one record of a coster context: how many
// entries are filed under it, and how many calls hold it, which eviction
// must leave alone. Its CostMemo's mu covers both counts.
type memoContext struct {
	ctx     costerContext
	entries int
	users   int // acquired, not yet released
}

// MaxMemoEntries bounds a CostMemo. Past it, whole contexts go, oldest
// first, skipping any a call is using, so no call loses its own entries
// mid-search and its evaluation counts stay deterministic. A served
// optimizer holds at most ~6 700 entries in ~80 contexts under the
// repository benchmark's workloads, so none of them evicts; a client
// sending new conditions with every request (each a new context) cannot
// grow the memo without end. An eviction goes down to three quarters of
// the bound, so its pass over the entries is paid once per quarter of new
// ones.
const MaxMemoEntries = 1 << 15

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
	contexts map[costerContext]*memoContext // guarded by mu
	order    []*memoContext                 // guarded by mu; contexts, oldest first
	entries  map[memoKey]memoEntry          // guarded by mu
	flights  map[memoKey]*memoFlight        // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCostMemo returns an empty memo.
func NewCostMemo() *CostMemo { return &CostMemo{} }

// acquire returns the memo's one record of ctx and holds it for the
// caller until release: eviction never drops a context a call is using. A
// record handed out before a Reset stays unique to its context, so keys
// built from it never match another context's.
func (m *CostMemo) acquire(ctx costerContext) *memoContext {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.contexts[ctx]
	if !ok {
		if m.contexts == nil {
			m.contexts = make(map[costerContext]*memoContext)
		}
		p = &memoContext{ctx: ctx}
		m.contexts[ctx] = p
		m.order = append(m.order, p)
	}
	p.users++
	return p
}

// release ends the caller's hold on p.
func (m *CostMemo) release(p *memoContext) {
	m.mu.Lock()
	p.users--
	m.mu.Unlock()
}

// evictLocked drops whole contexts, oldest first, until the memo holds at
// most three quarters of MaxMemoEntries entries or only contexts in use
// are left, then deletes their entries in one pass.
func (m *CostMemo) evictLocked() {
	drop := make(map[*memoContext]bool)
	var held []*memoContext
	n, i := len(m.entries), 0
	for ; i < len(m.order) && n > MaxMemoEntries-MaxMemoEntries/4; i++ {
		p := m.order[i]
		if p.users > 0 {
			held = append(held, p)
			continue
		}
		drop[p] = true
		n -= p.entries
		delete(m.contexts, p.ctx)
	}
	m.order = append(held, m.order[i:]...)
	//raqolint:ignore maprange deleting every entry of a dropped context comes to the same in any order
	for k := range m.entries {
		if drop[k.ctx] {
			delete(m.entries, k)
		}
	}
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
	k.ctx.entries++
	if len(m.entries) > MaxMemoEntries {
		m.evictLocked()
	}
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
	m.contexts, m.order, m.entries = nil, nil, nil
	m.mu.Unlock()
}
