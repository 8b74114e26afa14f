// Package core is the paper's primary contribution: Resource and Query
// Optimization (RAQO). It provides
//
//   - Coster, the getPlanCost extension of Section VI-C that runs resource
//     planning (hill climbing, brute force, or the resource-plan cache)
//     for every candidate sub-plan an underlying query planner prices;
//   - Optimizer, the joint query/resource optimizer supporting the
//     Section IV use-case modes: (p,r) jointly, r ⇒ p (resource budget),
//     p ⇒ (r,c) (resources for a fixed plan), c ⇒ (p,r) (price point),
//     and adaptive re-optimization when cluster conditions change;
//   - rule-based RAQO: the default Hive/Spark 10 MB rule (Figure 10) and
//     resource-aware decision trees learned from switch-point data
//     (Figure 11).
package core

import (
	"fmt"
	"math"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/optimizer"
	"raqo/internal/plan"
	"raqo/internal/resource"
)

// Coster prices one join operator, optionally planning its resources
// first. With Resources set, this is cost-based RAQO's integration point:
// "as the query planner considers different candidate sub-plans, the
// resource planner considers the resource space for each of them". With
// Resources nil, it is the plain QO baseline: every operator is priced at
// the Fixed configuration.
//
// A Coster is per-call state: it serves one planning call at a time, on one
// goroutine. Concurrent planning calls each build their own Coster; what
// they share (the Resources planner, the Memo) is safe for concurrent use.
//
// Within one Optimizer planning call, a Coster whose Resources is a
// *resource.Cache and whose Memo is nil asks the cache each question once
// while the cache is unchanged: an answer the cache gave without an
// evaluation is kept in a per-call table and reused, without locking the
// cache, for as long as the cache's Version reads the same (see
// answerTable). Reused answers are counted as the cache hits they replace
// when the call ends, so the cache's Stats read as if every question had
// been asked.
type Coster struct {
	Models  *cost.Models
	Pricing cost.Pricing

	// Resources, when non-nil, plans each operator's configuration within
	// Cond. When nil, Fixed is used for every operator.
	Resources resource.Planner
	Fixed     plan.Resources
	Cond      cluster.Conditions

	// Engine, when non-nil, makes costing memory-aware — the Section VIII
	// pruning idea ("a broadcast join requires one relation to fit in
	// memory"): broadcast operators are planned only over container sizes
	// whose hash budget fits the build side, and rejected outright when no
	// size within the conditions fits, so the planner prunes the whole
	// candidate instead of costing an impossible plan.
	Engine *execsim.Params

	// Memo, when non-nil, memoizes operator costings by (cost model, data
	// characteristic, coster context): repeated sub-plans inside one DP —
	// and across queries when the memo is shared — skip cost modeling and
	// resource planning entirely. See CostMemo.
	Memo *CostMemo

	pruned   int64
	resIters int64

	fp    uint64
	fpSet bool

	// Set between beginCall and endCall: the cache behind Resources and the
	// call's answer table; reused counts the answers the table served.
	cache   *resource.Cache
	answers *answerTable
	reused  int64
}

var _ optimizer.OperatorCoster = (*Coster)(nil)

// Pruned returns how many operators the memory-awareness check rejected
// (memoized rejections count every time they are served).
func (c *Coster) Pruned() int64 { return c.pruned }

// ResourceIters returns how many resource configurations this coster's
// operators consumed (the paper's #Resource-Iterations metric), attributed
// exactly per call via resource.PlanWithCount — memo and cache hits
// contribute zero.
func (c *Coster) ResourceIters() int64 { return c.resIters }

// beginCall starts a planning call: it arms per-call answer reuse when
// Resources is a resource-plan cache and no cost memo sits in front of it.
// Every beginCall is paired with an endCall.
func (c *Coster) beginCall() {
	if cache, ok := c.Resources.(*resource.Cache); ok && c.Memo == nil {
		c.cache, c.answers, c.reused = cache, getAnswers(), 0
	}
}

// endCall ends a planning call: it counts the reused answers as the cache
// hits they stand for and returns the answer table to its pool.
func (c *Coster) endCall() {
	if c.answers == nil {
		return
	}
	c.cache.CountHits(c.reused)
	putAnswers(c.answers)
	c.cache, c.answers = nil, nil
}

// fingerprint hashes everything outside the operator itself that costing
// depends on — the cluster conditions, the fixed configuration, whether a
// resource planner is present, and the engine parameters — so memo entries
// from different coster contexts can never collide.
func (c *Coster) fingerprint() uint64 {
	if !c.fpSet {
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
			}
		}
		mixF := func(f float64) { mix(math.Float64bits(f)) }
		mix(uint64(c.Cond.MinContainers))
		mix(uint64(c.Cond.MaxContainers))
		mix(uint64(c.Cond.ContainerStep))
		mixF(c.Cond.MinContainerGB)
		mixF(c.Cond.MaxContainerGB)
		mixF(c.Cond.GBStep)
		mix(uint64(c.Fixed.Containers))
		mixF(c.Fixed.ContainerGB)
		if c.Resources != nil {
			mix(1)
		}
		if c.Engine != nil {
			mix(2)
			for i := 0; i < len(c.Engine.Name); i++ {
				h = (h ^ uint64(c.Engine.Name[i])) * 1099511628211
			}
			mixF(c.Engine.OOMFrac)
		}
		c.fp, c.fpSet = h, true
	}
	return c.fp
}

// CostOperator implements optimizer.OperatorCoster, annotating the
// operator with the chosen resource configuration.
func (c *Coster) CostOperator(j *plan.Node) (optimizer.OpCost, error) {
	if j.IsScan() {
		return optimizer.OpCost{}, nil
	}
	if c.Models == nil {
		return optimizer.OpCost{}, fmt.Errorf("core: coster has no cost models")
	}
	model, ok := c.Models.For(j.Algo)
	if !ok {
		return optimizer.OpCost{}, fmt.Errorf("core: no cost model for %s", j.Algo)
	}
	if c.Memo == nil {
		if c.answers != nil {
			return c.costReusing(j, model)
		}
		oc, _, err := c.costJoin(j, model)
		return oc, err
	}
	k := memoKey{model: model.Name(), bits: math.Float64bits(j.SmallerInputGB()), ctx: c.fingerprint()}
	e, hit := c.Memo.do(k, func() memoEntry {
		oc, pruned, err := c.costJoin(j, model)
		return memoEntry{res: j.Res, oc: oc, err: err, pruned: pruned}
	})
	if hit {
		if e.err != nil {
			if e.pruned {
				c.pruned++
			}
			return optimizer.OpCost{}, e.err
		}
		j.Res = e.res
		return e.oc, nil
	}
	return e.oc, e.err
}

// costReusing is costJoin behind the call's answer table. A recorded answer
// is reused only while the cache's Version still equals the one it was
// given at. An answer is recorded only when the cache gave it without an
// evaluation and Version read the same before and after: after a miss the
// cache holds the inserted configuration, whose snap onto the grid need not
// equal the climb's own bits, so the next ask of that question, an exact
// hit, is the one recorded.
func (c *Coster) costReusing(j *plan.Node, model cost.Model) (optimizer.OpCost, error) {
	bits := math.Float64bits(j.SmallerInputGB())
	s := c.answers.find(j.Algo, bits)
	v := c.cache.Version()
	if s != nil && s.version == v {
		c.reused++
		j.Res = s.res
		return s.oc, nil
	}
	iters := c.resIters
	oc, _, err := c.costJoin(j, model)
	if err == nil && c.resIters == iters && c.cache.Version() == v {
		a := answerSlot{epoch: c.answers.epoch, algo: j.Algo, bits: bits, version: v, res: j.Res, oc: oc}
		if s != nil {
			*s = a
		} else {
			c.answers.insert(a)
		}
	}
	return oc, err
}

// costJoin is the uncached costing path; it reports whether a returned
// error was a memory-awareness prune (already counted against pruned).
func (c *Coster) costJoin(j *plan.Node, model cost.Model) (optimizer.OpCost, bool, error) {
	cond := c.Cond
	if c.Engine != nil && j.Algo == plan.BHJ {
		restricted, err := restrictForBroadcast(c.Engine, c.Cond, j)
		if err != nil {
			c.pruned++
			return optimizer.OpCost{}, true, err
		}
		cond = restricted
	}
	var r plan.Resources
	if c.Resources != nil {
		var err error
		var n int64
		r, n, err = resource.PlanWithCount(c.Resources, model, j.SmallerInputGB(), cond)
		c.resIters += n
		if err != nil {
			return optimizer.OpCost{}, false, fmt.Errorf("core: resource planning for %s over %v: %w",
				j.Algo, j.Relations(), err)
		}
	} else {
		if c.Fixed.IsZero() {
			return optimizer.OpCost{}, false, fmt.Errorf("core: coster has neither a resource planner nor a fixed configuration")
		}
		r = c.Fixed
		if c.Engine != nil && j.Algo == plan.BHJ &&
			j.SmallerInputGB() > c.Engine.HashCapacityGB(r.ContainerGB, 1) {
			c.pruned++
			return optimizer.OpCost{}, true, fmt.Errorf("core: %s over %v does not fit %v (build side %.2f GB)",
				j.Algo, j.Relations(), r, j.SmallerInputGB())
		}
	}
	j.Res = r
	secs := model.Cost(j.SmallerInputGB(), r.ContainerGB, float64(r.Containers))
	return optimizer.OpCost{
		Seconds: secs,
		Money:   c.Pricing.StageCost(r, secs),
	}, false, nil
}

// restrictForBroadcast raises the minimum container size so the operator's
// hash side fits the engine's memory budget; it errors when even the
// largest container cannot hold it.
func restrictForBroadcast(engine *execsim.Params, cond cluster.Conditions, j *plan.Node) (cluster.Conditions, error) {
	need := j.SmallerInputGB() / engine.OOMFrac
	if need <= cond.MinContainerGB {
		return cond, nil
	}
	if need > cond.MaxContainerGB {
		return cluster.Conditions{}, fmt.Errorf(
			"core: broadcast over %v infeasible: %.2f GB build side needs %.2f GB containers, cluster max is %g GB",
			j.Relations(), j.SmallerInputGB(), need, cond.MaxContainerGB)
	}
	// Snap up to the grid.
	steps := math.Ceil((need - cond.MinContainerGB) / cond.GBStep)
	cond.MinContainerGB += steps * cond.GBStep
	if cond.MinContainerGB > cond.MaxContainerGB {
		return cluster.Conditions{}, fmt.Errorf(
			"core: broadcast over %v infeasible on the resource grid", j.Relations())
	}
	return cond, nil
}
