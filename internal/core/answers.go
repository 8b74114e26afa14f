package core

import (
	"sync"

	"raqo/internal/optimizer"
	"raqo/internal/plan"
)

// answerTable is one planning call's record of what the resource-plan cache
// answered its Coster, for the calls that price trees: the randomized
// planner's, resource-only and price-bounded planning. The Selinger DP
// keeps its answers in its own table (optimizer.AnswerKeeper), under the
// same rule. The key is the operator's join algorithm and the
// exact bits of its smaller input size. A Coster's conditions, engine,
// models and pricing are fixed, so that key fixes the cost model and the
// broadcast-restricted conditions the cache is asked under. An entry holds
// the configuration the cache gave, the OpCost priced from it and the cache
// Version it was given at. While the cache still reads that Version, asking
// it again returns the same configuration (see resource.Cache), so the
// entry is exactly what the call would compute.
//
// The table is direct-mapped: a question reads and writes only the one slot
// its hash picks, and a new answer overwrites whatever that slot held. A
// question whose slot was overwritten is asked of the cache again, which
// answers it as before (a hit, no evaluation), so the loss costs a cache
// probe and changes no answer or count. Each slot carries the epoch of the
// call that wrote it, and a slot from an older epoch is empty: advancing
// the epoch clears the table in O(1), so a pooled table costs a new call
// nothing.
type answerTable struct {
	epoch uint32
	slots [1 << answerBits]answerSlot
}

// answerSlot is one recorded answer; it is empty unless epoch is its
// table's.
type answerSlot struct {
	epoch   uint32
	algo    plan.JoinAlgo
	bits    uint64 // math.Float64bits of the smaller input size
	version uint64 // the cache Version the answer was given at
	res     plan.Resources
	oc      optimizer.OpCost
}

// answerBits sizes the table at 2^answerBits slots of 64 B (16 KB).
// BenchmarkHotPathCold's randomized-30 call asks ~90 distinct questions
// and the largest calls of `raqo figure all` ~340; a question that loses
// its slot costs one cache hit more. 1024 slots ran no faster than 256 on
// plan_scale or on Fig 15(a)'s cached planning (alternating runs on a
// 2-CPU host).
const answerBits = 8

var answerPool = sync.Pool{New: func() any { return &answerTable{epoch: 1} }}

func getAnswers() *answerTable { return answerPool.Get().(*answerTable) }

func putAnswers(t *answerTable) {
	t.reset()
	answerPool.Put(t)
}

// reset empties the table by advancing its epoch; only when the epoch wraps
// does it have to clear the slots.
func (t *answerTable) reset() {
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots[:])
		t.epoch = 1
	}
}

// answerIndex is the one slot the question (algo, bits) may occupy:
// Fibonacci hashing, whose top bits mix every key bit.
func answerIndex(algo plan.JoinAlgo, bits uint64) uint64 {
	return (bits ^ uint64(algo)) * 0x9e3779b97f4a7c15 >> (64 - answerBits)
}
