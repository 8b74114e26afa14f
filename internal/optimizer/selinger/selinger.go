// Package selinger implements the classic System R bottom-up dynamic
// programming join-ordering algorithm over left-deep trees (Selinger et
// al., SIGMOD 1979), with the per-operator costing hook that lets RAQO plug
// resource planning into the enumeration.
//
// The DP runs over connected subsets only, in the query's schedule: every
// subset of two or more relations the join graph connects, by size and
// then in ascending mask order. A subset the join graph does not connect
// is never visited, and a leaf not joinable with the rest of a mask is
// skipped before any candidate is priced. The candidates, their order and
// so every costing call must stay those of a sweep over all 2^n masks: the
// resource-plan cache answers by what it was asked before. The schedule
// holds every connected subset, planned or not, and one with no planned
// split makes no costing call; so every subset with a candidate is visited
// where the sweep reaches it, whatever the coster refused before.
//
// What depends on the query alone — its scans, their join graph and
// selectivities and the schedule — is the query's planning form
// (plan.Query.Form), derived once and read by every later call. A query's
// first planning derives it in the pooled state's scratch, so a query
// planned once costs no more than before.
//
// The DP works on values, not plan nodes. Its table holds, per planned
// subset, the winner's recipe — the left input's mask, the right leaf, the
// operator and its resources — with its cumulative cost and its estimated
// output. A split's statistics come from the table: the left input's and
// the leaf's estimates, and the product of the selectivities of the edges
// between the leaf and the left input's members, folded by the form in
// catalog.Index.CrossSelectivity's order (members in ascending query index
// are in ascending rank: the query's relations and the ranks are both
// name-sorted). The coster prices a
// plan.JoinScratch candidate that reads as the join of the materialized
// sub-plan with the leaf, and the one plan returned is built from the
// recipes at the end and deep-copied out.
//
// A coster that is an optimizer.AnswerKeeper and offers an epoch lets the
// DP keep its answers. A candidate's question — its join algorithm and
// the size of its smaller input — is fixed by the algorithm and by which
// table entry is the smaller input: the left input's or the leaf's. So
// the DP keeps the answer per (entry, algorithm), and serves a repeated
// question from there, with no candidate built and no call made, while
// the epoch still reads what it read when the answer was given. The coster
// would have given the same answer to the call it saves, so the calls the
// DP does make still see what the full sweep's would.
//
// That working state — the table, its entries' relation sets and kept
// answers, the scratch form, the candidate scratch and the arena the
// returned plan is built in — lives in a sync.Pool of dpState values, so
// repeated planning calls allocate near-zero.
package selinger

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"raqo/internal/catalog"
	"raqo/internal/optimizer"
	"raqo/internal/plan"
)

// MaxRelations bounds the DP: its table index is a dense 2^n-slot slice,
// and its schedule is the one a query's planning form keeps, up to
// plan.ScheduleMax relations. Queries beyond this are for the randomized
// planner (the paper uses Selinger on TPC-H and the randomized planner for
// the 100-table scaling experiments).
const MaxRelations = plan.ScheduleMax

// Planner is a Selinger-style left-deep query planner.
type Planner struct {
	// Coster prices each candidate join operator (and, in RAQO mode, plans
	// its resources). Required.
	Coster optimizer.OperatorCoster

	// Ctx, when non-nil, is observed between DP candidates: once it is
	// cancelled, Plan stops costing further masks and returns ctx.Err()
	// promptly, so an abandoned request stops burning CPU mid-search. nil
	// plans to completion (context.Background semantics).
	Ctx context.Context
}

// entry is one planned subset of the DP table: the recipe of its winning
// plan, recorded by value, with the plan's cumulative cost and estimated
// output. A leaf's entry has rest 0 and names the leaf itself.
type entry struct {
	rest uint32 // mask of the left (smaller-subset) input
	leaf int32  // query index of the right input relation
	algo plan.JoinAlgo
	res  plan.Resources
	cost optimizer.OpCost // cumulative cost of the subtree
	out  plan.Estimate
}

// answer is a costing kept for one table entry and join algorithm: what
// the coster answered a candidate whose smaller input is that entry.
type answer struct {
	at  uint64 // the epoch the answer was given at, plus one; 0: none
	res plan.Resources
	oc  optimizer.OpCost
}

// dpState is the reusable working memory of one Plan call.
type dpState struct {
	arena plan.Arena

	// f is the query's planning form: the leaves, their join graph and
	// selectivities and the schedule. form is the scratch q.Form builds a
	// query's first planning in.
	f    *plan.Form
	form plan.Form

	// entries are the planned subsets, the leaves first, in the order they
	// were planned; entry k's relation sets are sets[k*setWords:][:setWords].
	entries  []entry
	sets     []uint64
	setWords int

	// keeper, when non-nil, is the coster whose answers the DP keeps:
	// entry k's answer under plan.Algos[a] is answers[k*len(plan.Algos)+a].
	// reused counts the answers served from there. A field of its own,
	// not of entry: a larger entry costs a larger copy per candidate.
	keeper  optimizer.AnswerKeeper
	answers []answer
	reused  int64

	// slot is the table's index from mask to entry: slot[mask] holds the
	// entry's index + 1, 0 when mask is unplanned.
	slot    []int32
	scratch plan.JoinScratch
}

var statePool = sync.Pool{New: func() any { return new(dpState) }}

// prepare sizes the table index for an n-relation query and clears any
// previous run's slots (bounded to the 2^n this query uses).
func (st *dpState) prepare(n int) {
	size := 1 << uint(n)
	if cap(st.slot) < size {
		st.slot = make([]int32, size)
	} else {
		st.slot = st.slot[:size]
		clear(st.slot)
	}
}

// release recycles the arena and drops every plan-node pointer so a
// pooled state never retains a previous query's plans.
func (st *dpState) release() {
	st.arena.Reset()
	st.f = nil
	st.scratch = plan.JoinScratch{}
	st.entries = st.entries[:0]
	st.sets = st.sets[:0]
	st.keeper, st.answers, st.reused = nil, st.answers[:0], 0
}

// lookup returns the index of mask's entry, if mask is planned.
func (st *dpState) lookup(mask uint32) (int, bool) {
	k := st.slot[mask]
	return int(k) - 1, k != 0
}

// add records e as mask's entry. Its relation sets must already be
// st.sets' next setWords words.
func (st *dpState) add(mask uint32, e entry) {
	k := int32(len(st.entries))
	st.entries = append(st.entries, e)
	if st.keeper != nil {
		st.answers = append(st.answers, make([]answer, len(plan.Algos))...)
	}
	st.slot[mask] = k + 1
}

// joinOut is the estimated output of entry k joined with leaf i, whose
// neighbours in k's relations are nbr.
func (st *dpState) joinOut(k, i int, nbr uint32) plan.Estimate {
	return plan.JoinEstimate(st.entries[k].out, st.entries[i].out, st.f.Cross(i, uint64(nbr)))
}

// setsOf returns the relation sets of entry k.
func (st *dpState) setsOf(k int) []uint64 {
	return st.sets[k*st.setWords : (k+1)*st.setWords]
}

// load reads the query's planning form and makes its leaves the table's
// first n entries.
func (st *dpState) load(q *plan.Query) error {
	f, err := q.Form(&st.form)
	if err != nil {
		return err
	}
	// The selectivity fold walks a mask's members in query order, which is
	// CrossSelectivity's rank order only over name-sorted relations.
	for i := 1; i < f.Len(); i++ {
		if f.Rank(i) <= f.Rank(i-1) {
			return fmt.Errorf("selinger: query relations %v are not sorted and unique", q.Rels)
		}
	}
	st.f = f
	st.setWords = 2 * q.Schema.Index().Words()
	for i := range f.Len() {
		leaf := f.Leaf(i)
		st.sets = leaf.AppendSets(st.sets)
		st.add(1<<uint(i), entry{leaf: int32(i), out: leaf.Estimate()})
	}
	return nil
}

// bestFor prices every (subset, join-algo) candidate for one mask, reading
// only entries of strictly smaller subsets from the table, and returns the
// winner's entry. A split's estimate is derived from the table at most
// once, and only for a split that is built for costing or wins; the
// mask's relation sets, the same for every split, are derived at the
// first and left as st.sets' next words. The keeper's epoch is read once
// per split and again after each costing call, which may move it; kept
// answers served after one reading count as served at that reading
// (optimizer.AnswerKeeper). A candidate whose answer the smaller input's
// entry keeps at that epoch is priced from there; the candidate node is
// built only for the others. Ties keep the earlier candidate (strict
// improvement only).
func (p *Planner) bestFor(st *dpState, mask uint32, considered *int) (entry, bool) {
	sc := &st.scratch
	f, graph := st.f, st.f.Graph()
	var best entry
	found := false
	var sets []uint64
	nAlgos := len(plan.Algos)
	for sub := mask; sub != 0; sub &= sub - 1 {
		i := bits.TrailingZeros32(sub)
		rest := mask &^ (1 << uint(i))
		nbr := rest & uint32(graph[i])
		if nbr == 0 {
			continue // cross product: relation i not joinable with rest
		}
		k, ok := st.lookup(rest)
		if !ok {
			continue // rest has no plan: disconnected, or no feasible one
		}
		prev, leaf := &st.entries[k], f.Leaf(i)
		if sets == nil {
			at := len(st.entries) * st.setWords
			st.sets = plan.AppendJoinSets(st.sets[:at], st.setsOf(k), leaf)
			sets = st.sets[at:]
		}
		var out plan.Estimate
		haveOut := false
		var kept []answer
		var epoch uint64
		if st.keeper != nil {
			small := i
			if plan.LeftIsSmaller(prev.out, st.entries[i].out) {
				small = k
			}
			kept = st.answers[small*nAlgos : (small+1)*nAlgos]
			epoch, _ = st.keeper.Epoch()
		}
		built := false
		for a, algo := range plan.Algos {
			var oc optimizer.OpCost
			var res plan.Resources
			if kept != nil && kept[a].at == epoch+1 {
				oc, res = kept[a].oc, kept[a].res
				st.reused++
			} else {
				if !built {
					if !haveOut {
						out, haveOut = st.joinOut(k, i, nbr), true
					}
					sc.Join(algo, prev.out, st.setsOf(k), leaf, out, sets)
					built = true
				}
				j := sc.Rejoin(algo)
				var err error
				oc, err = p.Coster.CostOperator(j)
				if kept != nil {
					now, _ := st.keeper.Epoch()
					if err == nil && now == epoch {
						kept[a] = answer{at: epoch + 1, res: j.Res, oc: oc}
					}
					epoch = now
				}
				if err != nil {
					continue // e.g. no feasible resources for this operator
				}
				res = j.Res
			}
			*considered++
			total := prev.cost.Add(oc)
			if !found || total.Seconds < best.cost.Seconds {
				if !haveOut {
					out, haveOut = st.joinOut(k, i, nbr), true
				}
				best = entry{rest: rest, leaf: int32(i), algo: algo, res: res, cost: total, out: out}
				found = true
			}
		}
	}
	return best, found
}

// build materializes mask's winning plan in the arena from the recipes.
func (st *dpState) build(s *catalog.Schema, mask uint32) (*plan.Node, error) {
	k, ok := st.lookup(mask)
	if !ok {
		return nil, fmt.Errorf("selinger: internal: no entry for subset %b", mask)
	}
	e := &st.entries[k]
	if e.rest == 0 {
		return st.f.Leaf(int(e.leaf)), nil
	}
	left, err := st.build(s, e.rest)
	if err != nil {
		return nil, err
	}
	j, err := st.arena.Join(s, e.algo, left, st.f.Leaf(int(e.leaf)))
	if err != nil {
		return nil, fmt.Errorf("selinger: internal: rebuilding the winner for %b: %w", mask, err)
	}
	j.Res = e.res
	return j, nil
}

// Plan runs the DP and returns the cheapest (by time) left-deep plan.
func (p *Planner) Plan(q *plan.Query) (*optimizer.Result, error) {
	if p.Coster == nil {
		return nil, fmt.Errorf("selinger: nil coster")
	}
	n := len(q.Rels)
	if n > MaxRelations {
		return nil, fmt.Errorf("selinger: %d relations exceeds the DP limit of %d; use the randomized planner", n, MaxRelations)
	}

	st := statePool.Get().(*dpState)
	defer func() {
		if st.reused > 0 {
			st.keeper.Reused(st.reused)
		}
		st.release()
		statePool.Put(st)
	}()
	st.prepare(n)
	if keeper, ok := p.Coster.(optimizer.AnswerKeeper); ok {
		if _, ok := keeper.Epoch(); ok {
			st.keeper = keeper
		}
	}
	if err := st.load(q); err != nil {
		return nil, err
	}
	considered := 0

	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	for _, mask := range st.f.Schedule() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("selinger: planning cancelled: %w", err)
		}
		if e, ok := p.bestFor(st, mask, &considered); ok {
			st.add(mask, e)
		}
	}
	full := uint32(1)<<uint(n) - 1
	k, ok := st.lookup(full)
	if !ok {
		return nil, fmt.Errorf("selinger: no feasible plan for %v", q.Rels)
	}
	root, err := st.build(q.Schema, full)
	if err != nil {
		return nil, err
	}
	// The winning tree lives in the pooled arena; deep-copy it out before
	// the deferred release recycles the storage.
	return &optimizer.Result{Plan: root.Clone(), Cost: st.entries[k].cost, PlansConsidered: considered}, nil
}
