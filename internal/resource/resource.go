// Package resource implements the paper's Section VI-B resource planning:
// choosing a resource configuration (container count x container size) for
// one plan operator given a cost model and the current cluster conditions.
//
// Three planners are provided, matching the paper's evaluation:
//
//   - BruteForce exhaustively scans the discrete resource space.
//   - HillClimb is Algorithm 1: start from the smallest configuration and
//     greedily step along whichever dimension improves the modeled cost,
//     terminating at a local optimum (~4x fewer configurations explored).
//   - Cache wraps another planner with the resource-plan cache of Section
//     VI-B3: an in-memory sorted index from data characteristics to the
//     best known configuration, with exact, nearest-neighbor and
//     weighted-average lookups (another ~4x, up to ~10x on TPC-H All).
package resource

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
)

// Planner picks the resource configuration for one operator whose smaller
// input is ssGB, under the given cluster conditions, minimizing the cost
// model's prediction.
type Planner interface {
	Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error)
	// Evaluations returns the cumulative number of resource configurations
	// priced (the paper's "#Resource-Iterations" metric).
	Evaluations() int64
}

// Counted is an optional Planner extension that additionally reports how
// many resource configurations one specific call priced. Evaluations() is a
// global cumulative counter, so attributing work to a single call via a
// before/after delta is a guess once calls run concurrently; PlanCounted
// makes the attribution exact. All planners in this package implement it.
type Counted interface {
	Planner
	PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error)
}

// PlanWithCount plans via PlanCounted when the planner supports it, and
// otherwise falls back to a Plan call bracketed by Evaluations deltas (exact
// only while the planner is not shared across concurrent calls).
func PlanWithCount(p Planner, m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	if cp, ok := p.(Counted); ok {
		return cp.PlanCounted(m, ssGB, cond)
	}
	before := p.Evaluations()
	r, err := p.Plan(m, ssGB, cond)
	return r, p.Evaluations() - before, err
}

// BruteForce explores every configuration in the space.
type BruteForce struct {
	evals atomic.Int64
}

// Plan implements Planner.
func (b *BruteForce) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	r, _, err := b.PlanCounted(m, ssGB, cond)
	return r, err
}

// PlanCounted implements Counted.
func (b *BruteForce) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	if err := cond.Validate(); err != nil {
		return plan.Resources{}, 0, err
	}
	best := plan.Resources{}
	bestCost := math.Inf(1)
	n := int64(0)
	cond.ForEach(func(r plan.Resources) bool {
		c := m.Cost(ssGB, r.ContainerGB, float64(r.Containers))
		n++
		if c < bestCost {
			bestCost, best = c, r
		}
		return true
	})
	b.evals.Add(n)
	if best.IsZero() {
		return plan.Resources{}, n, fmt.Errorf("resource: empty configuration space %v", cond)
	}
	return best, n, nil
}

// Evaluations implements Planner.
func (b *BruteForce) Evaluations() int64 { return b.evals.Load() }

// HillClimb is the paper's Algorithm 1. Start defaults to the minimum
// configuration ("given that the users want to minimize the resources used
// in modern cloud infrastructures ... start from the smallest resource
// configuration and then climb").
type HillClimb struct {
	// Start optionally overrides the climb's starting configuration (used
	// by the ablation benchmarks); when zero the cluster minimum is used.
	Start plan.Resources

	evals atomic.Int64
}

// Plan implements Planner, following Algorithm 1's control flow: in each
// round, for each resource dimension, try one step backward and one step
// forward (within cluster conditions), keep the best improving step, and
// stop when no step improves the current cost.
func (h *HillClimb) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	r, _, err := h.PlanCounted(m, ssGB, cond)
	return r, err
}

// PlanCounted implements Counted.
func (h *HillClimb) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	if err := cond.Validate(); err != nil {
		return plan.Resources{}, 0, err
	}
	cur := h.Start
	if cur.IsZero() {
		cur = cond.MinResources()
	}
	cur = cond.Clamp(cur)
	evals := int64(0)
	eval := func(r plan.Resources) float64 {
		evals++
		return m.Cost(ssGB, r.ContainerGB, float64(r.Containers))
	}
	// dims: 0 = containers, 1 = container size.
	step := [2]float64{float64(cond.ContainerStep), cond.GBStep}
	get := func(r plan.Resources, i int) float64 {
		if i == 0 {
			return float64(r.Containers)
		}
		return r.ContainerGB
	}
	set := func(r plan.Resources, i int, v float64) plan.Resources {
		if i == 0 {
			r.Containers = int(math.Round(v))
		} else {
			r.ContainerGB = v
		}
		return r
	}
	lo := [2]float64{float64(cond.MinContainers), cond.MinContainerGB}
	hi := [2]float64{float64(cond.MaxContainers), cond.MaxContainerGB}
	candidate := [2]float64{-1, 1}

	for {
		curCost := eval(cur)
		bestCost := curCost
		for i := 0; i < 2; i++ {
			bestJ := -1
			for j := range candidate {
				v := get(cur, i) + step[i]*candidate[j]
				if v < lo[i]-1e-9 || v > hi[i]+1e-9 {
					continue
				}
				temp := eval(set(cur, i, v))
				if temp < bestCost {
					bestCost = temp
					bestJ = j
				}
			}
			if bestJ != -1 {
				cur = set(cur, i, get(cur, i)+step[i]*candidate[bestJ])
			}
		}
		if bestCost >= curCost {
			h.evals.Add(evals)
			return cur, evals, nil // local optimum: no improving neighbor
		}
	}
}

// Evaluations implements Planner.
func (h *HillClimb) Evaluations() int64 { return h.evals.Load() }

// LookupMode selects the cache's matching policy.
type LookupMode int

// Cache lookup modes (Section VI-B3).
const (
	// Exact returns a hit only for identical data characteristics.
	Exact LookupMode = iota
	// NearestNeighbor returns the configuration of the closest key within
	// the threshold.
	NearestNeighbor
	// WeightedAverage blends the configurations of all keys within the
	// threshold, weighted by proximity, then snaps to the resource grid.
	WeightedAverage
)

// String names the mode.
func (m LookupMode) String() string {
	switch m {
	case Exact:
		return "exact"
	case NearestNeighbor:
		return "nearest-neighbor"
	case WeightedAverage:
		return "weighted-average"
	}
	return fmt.Sprintf("LookupMode(%d)", int(m))
}

// Cache wraps a Planner with the resource-plan cache: per cost model, a
// sorted array of data-characteristic keys (smaller input size) pointing at
// the best known configuration — the paper's prototype layout ("a sorted
// array of keys ... and we perform a binary search for lookup"). Safe for
// concurrent use; the zero value with an Inner planner is ready.
//
// Concurrency design. One RWMutex guards the per-model arrays and the
// in-flight table: lookups share the read lock, and only a miss takes the
// write lock (twice, briefly — never across the inner planner). Misses are
// deduplicated singleflight-style per (model, key): concurrent misses on
// the same key run the inner planner once, and the waiters share the
// leader's result (counted as hits, since they consumed no inner
// evaluations).
//
// Invariant (insert-after-unlock race): an insert can never land in an
// index dropped by Reset. Reset advances the generation and drops the
// arrays under the write lock, and a miss re-checks the generation under
// that lock at insert time — a stale result computed against a pre-Reset
// cache is returned to its callers but never inserted. In-flight
// computations survive a Reset only to serve their waiters.
//
// Version. Every insert and every drop advances Version under the write
// lock, and nothing else changes what a lookup answers. So while Version
// reads the same, the cache answers every (model, key, conditions)
// question exactly as it did: a caller may keep an answer it took at one
// Version and reuse it while Version still reads that value, reporting the
// reuse through CountHits.
type Cache struct {
	Inner Planner
	Mode  LookupMode
	// ThresholdGB is the data-delta threshold for NearestNeighbor and
	// WeightedAverage matches (the x-axis of Figure 14).
	ThresholdGB float64

	mu        sync.RWMutex
	indexes   []*arrayIndex         // one per cost model; guarded by mu
	flights   map[flightKey]*flight // guarded by mu
	gen       uint64                // guarded by mu
	evictions int64                 // guarded by mu
	version   atomic.Uint64         // advanced under mu; see Version
	hits      atomic.Int64
	misses    atomic.Int64
	deduped   atomic.Int64
}

// flightKey identifies an in-flight miss by its exact key bits.
type flightKey struct {
	model string
	bits  uint64
}

// flight is one in-flight inner-planner run; res/err are published before
// done is closed.
type flight struct {
	done chan struct{}
	res  plan.Resources
	err  error
}

// exactEps treats keys closer than this as identical, absorbing float noise.
const exactEps = 1e-9

// arrayIndex is one cost model's sorted array with binary-search probes.
type arrayIndex struct {
	model string
	keys  []float64
	vals  []plan.Resources
}

// lowerBound is sort.SearchFloat64s without its closure: the first i with
// keys[i] >= key, found by the same halving steps, so it lands on the same
// index even where a NaN makes that predicate non-monotone.
//
//raqo:noalloc
func lowerBound(keys []float64, key float64) int {
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if !(keys[h] >= key) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

func (ix *arrayIndex) insert(key float64, val plan.Resources) {
	i := lowerBound(ix.keys, key)
	if i < len(ix.keys) && math.Abs(ix.keys[i]-key) <= exactEps {
		ix.vals[i] = val
		return
	}
	ix.keys = append(ix.keys, 0)
	ix.vals = append(ix.vals, plan.Resources{})
	copy(ix.keys[i+1:], ix.keys[i:])
	copy(ix.vals[i+1:], ix.vals[i:])
	ix.keys[i] = key
	ix.vals[i] = val
}

// blend accumulates a proximity-weighted average of configurations.
type blend struct{ w, nc, gb float64 }

//raqo:noalloc
func (b *blend) add(dist float64, v plan.Resources) {
	w := 1 / (dist + exactEps)
	b.w += w
	b.nc += w * float64(v.Containers)
	b.gb += w * v.ContainerGB
}

// lookup is the cache's whole matching rule. An exact match (within
// exactEps; only the two entries around key's insertion point can qualify)
// is honored in every mode. NearestNeighbor then takes the closer of those
// two entries if it is within threshold (the lower key wins a tie).
// WeightedAverage blends every entry within threshold, weighted by
// proximity and summed downward from key, then upward, and snaps the blend
// to cond's grid.
//
//raqo:noalloc
func (ix *arrayIndex) lookup(key float64, mode LookupMode, threshold float64, cond cluster.Conditions) (plan.Resources, bool) {
	i := lowerBound(ix.keys, key)
	if i < len(ix.keys) && ix.keys[i]-key <= exactEps {
		return ix.vals[i], true
	}
	if i > 0 && key-ix.keys[i-1] <= exactEps {
		return ix.vals[i-1], true
	}
	switch mode {
	case NearestNeighbor:
		j := i
		if i == len(ix.keys) || (i > 0 && key-ix.keys[i-1] <= ix.keys[i]-key) {
			j = i - 1
		}
		if j >= 0 && math.Abs(ix.keys[j]-key) <= threshold {
			return ix.vals[j], true
		}
	case WeightedAverage:
		var b blend
		for j := i - 1; j >= 0 && key-ix.keys[j] <= threshold; j-- {
			b.add(key-ix.keys[j], ix.vals[j])
		}
		for j := i; j < len(ix.keys) && ix.keys[j]-key <= threshold; j++ {
			b.add(ix.keys[j]-key, ix.vals[j])
		}
		if b.w > 0 {
			return cond.Clamp(plan.Resources{
				Containers:  int(math.Round(b.nc / b.w)),
				ContainerGB: b.gb / b.w,
			}), true
		}
	}
	return plan.Resources{}, false
}

// indexLocked returns model's array, or nil. There is one array per cost
// model — two in practice — so a scan comparing names beats hashing one.
//
//raqo:noalloc
func (c *Cache) indexLocked(model string) *arrayIndex {
	for _, ix := range c.indexes {
		if ix.model == model {
			return ix
		}
	}
	return nil
}

// probe answers a lookup from model's array under the read lock.
//
//raqo:noalloc
func (c *Cache) probe(model string, key float64, cond cluster.Conditions) (plan.Resources, bool) {
	var r plan.Resources
	var hit bool
	c.mu.RLock()
	if ix := c.indexLocked(model); ix != nil {
		r, hit = ix.lookup(key, c.Mode, c.ThresholdGB, cond)
	}
	c.mu.RUnlock()
	return r, hit
}

// Plan implements Planner: look up the cache first; on a miss, run the
// inner planner (deduplicated against concurrent misses on the same key)
// and insert the result.
func (c *Cache) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	r, _, err := c.PlanCounted(m, ssGB, cond)
	return r, err
}

// PlanCounted implements Counted: cache hits and coalesced misses consume
// zero inner evaluations; only the miss that runs the inner planner reports
// that run's evaluations.
func (c *Cache) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	if c.Inner == nil {
		return plan.Resources{}, 0, fmt.Errorf("resource: cache has no inner planner")
	}
	model := m.Name()
	if r, hit := c.probe(model, ssGB, cond); hit {
		c.hits.Add(1)
		// Across-query reuse can cross cluster-condition changes; snap the
		// cached configuration onto the current grid.
		return cond.Clamp(r), 0, nil
	}
	// Miss: dedupe concurrent misses on the same key via the flight table.
	fk := flightKey{model, math.Float64bits(ssGB)}
	c.mu.Lock()
	// Double-check: a racing leader may have inserted this exact key
	// between our probe and taking the write lock.
	if ix := c.indexLocked(model); ix != nil {
		if v, ok := ix.lookup(ssGB, Exact, 0, cond); ok {
			c.mu.Unlock()
			c.hits.Add(1)
			return cond.Clamp(v), 0, nil
		}
	}
	if fl, ok := c.flights[fk]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return plan.Resources{}, 0, fl.err
		}
		c.hits.Add(1) // coalesced miss: served by the in-flight leader
		c.deduped.Add(1)
		return cond.Clamp(fl.res), 0, nil
	}
	fl := &flight{done: make(chan struct{})}
	if c.flights == nil {
		c.flights = make(map[flightKey]*flight)
	}
	c.flights[fk] = fl
	gen := c.gen
	c.mu.Unlock()

	c.misses.Add(1)
	r, n, err := PlanWithCount(c.Inner, m, ssGB, cond)
	fl.res, fl.err = r, err

	c.mu.Lock()
	delete(c.flights, fk)
	// Generation check: see the Cache doc comment — never insert a result
	// computed against a cache that Reset has since dropped.
	if err == nil && c.gen == gen {
		ix := c.indexLocked(model)
		if ix == nil {
			ix = &arrayIndex{model: model}
			c.indexes = append(c.indexes, ix)
		}
		ix.insert(ssGB, r)
		c.version.Add(1)
	}
	c.mu.Unlock()
	close(fl.done)
	if err != nil {
		return plan.Resources{}, n, err
	}
	return r, n, nil
}

// Evaluations implements Planner (delegates to the inner planner, so cache
// hits contribute zero). A cache with no inner planner has evaluated
// nothing.
func (c *Cache) Evaluations() int64 {
	if c.Inner == nil {
		return 0
	}
	return c.Inner.Evaluations()
}

// Version identifies the cache's contents: it advances on every insert and
// on every drop (Reset, and a ResetIfGeneration that resets), so two equal
// readings mean every lookup in between was answered from the same
// entries. It is one atomic load and takes no lock.
func (c *Cache) Version() uint64 { return c.version.Load() }

// CountHits adds n lookups to the hit counter: lookups a caller answered
// itself with an answer this cache gave at the current Version, which the
// cache would have answered identically and counted as hits.
func (c *Cache) CountHits(n int64) { c.hits.Add(n) }

// Hits returns the number of cache hits so far.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cache misses so far.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Stats is a point-in-time snapshot of the cache's counters — the stable
// export consumed by the service's /metrics endpoint and the CLI batch
// summary.
type Stats struct {
	// Hits counts lookups served without running the inner planner,
	// including coalesced misses (see Deduped).
	Hits int64
	// Misses counts lookups that ran the inner planner.
	Misses int64
	// Deduped counts singleflight-coalesced loads: concurrent misses on a
	// key already being computed that were served by the leader's result.
	// Deduped lookups are also counted in Hits (they consumed no inner
	// evaluations).
	Deduped int64
	// Evictions counts entries dropped by Reset calls.
	Evictions int64
	// Entries is the number of currently cached configurations.
	Entries int
	// Generation increments on every Reset (the insert-after-Reset guard).
	Generation uint64
}

// Stats returns a snapshot of the cache counters. The lookup counters are
// read individually, so a snapshot taken under concurrent use is
// approximate across fields but each field is exact.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Deduped: c.deduped.Load(),
	}
	c.mu.RLock()
	st.Evictions = c.evictions
	st.Entries = c.sizeLocked()
	st.Generation = c.gen
	c.mu.RUnlock()
	return st
}

// Reset clears every per-model index (the paper clears the cache before
// each query except in the across-query caching experiment, Fig 15b).
// In-flight misses are not interrupted: they complete, serve their waiters,
// and are discarded rather than inserted (see the generation invariant on
// Cache).
func (c *Cache) Reset() {
	c.mu.Lock()
	c.dropLocked()
	c.mu.Unlock()
}

// ResetIfGeneration resets the cache only if its generation still equals
// gen, and reports whether it did. This is the CAS form of Reset for
// components that observed the cache at some generation, did slow work
// (e.g. retraining a cost model), and want to invalidate the entries that
// slow work made stale — without clobbering a cache some other component
// already rebuilt in the meantime. Exactly one of any set of concurrent
// callers holding the same observed generation wins.
func (c *Cache) ResetIfGeneration(gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return false
	}
	c.dropLocked()
	return true
}

// dropLocked advances the generation and the version and clears every
// index, counting the evicted entries.
func (c *Cache) dropLocked() {
	c.gen++
	c.version.Add(1)
	c.evictions += int64(c.sizeLocked())
	c.indexes = nil
}

// Size returns the total number of cached entries across models.
func (c *Cache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sizeLocked()
}

func (c *Cache) sizeLocked() int {
	n := 0
	for _, ix := range c.indexes {
		n += len(ix.keys)
	}
	return n
}
