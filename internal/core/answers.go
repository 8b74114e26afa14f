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
// The table is open-addressed with linear probing and at most half full: it
// doubles before an insert would pass that. Each slot carries the epoch of
// the call that wrote it, and a slot from an older epoch is empty: advancing
// the epoch clears the table in O(1), so a pooled table costs a new call
// nothing, and it keeps the size its largest call grew it to.
type answerTable struct {
	epoch uint32
	used  int  // slots written in this epoch
	shift uint // 64 - log2(len(slots)): a key's home slot is its hash >> shift
	slots []answerSlot
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

// answerMinBits sizes a new table at 2^answerMinBits slots (14 KB). A table
// grows with the distinct questions its calls ask, so a cold call that asks
// few pays for few: BenchmarkHotPathCold's randomized-30 call records ~80
// questions cold and ~90 pass-warm, which the first 256 slots hold, and
// the largest calls of `raqo figure all` record ~340, which take the table
// to 1024. A fixed 2048-slot table (114 KB) cost a 16-way query of Figure
// 15(a) ~0.1 ms more whenever a collection had emptied the pool.
const answerMinBits = 8

var answerPool = sync.Pool{New: func() any {
	return &answerTable{epoch: 1, shift: 64 - answerMinBits, slots: make([]answerSlot, 1<<answerMinBits)}
}}

func getAnswers() *answerTable { return answerPool.Get().(*answerTable) }

func putAnswers(t *answerTable) {
	t.reset()
	answerPool.Put(t)
}

// reset empties the table by advancing its epoch; only when the epoch wraps
// does it have to clear the slots.
func (t *answerTable) reset() {
	t.epoch++
	t.used = 0
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

// home is the slot a key's probe starts from: Fibonacci hashing, whose top
// bits mix every key bit.
func (t *answerTable) home(algo plan.JoinAlgo, bits uint64) uint64 {
	return (bits ^ uint64(algo)) * 0x9e3779b97f4a7c15 >> t.shift
}

// find returns the slot recording the question (algo, bits), or nil. The
// table is never full, so the probe ends at an empty slot.
func (t *answerTable) find(algo plan.JoinAlgo, bits uint64) *answerSlot {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(algo, bits); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return nil
		}
		if s.bits == bits && s.algo == algo {
			return s
		}
	}
}

// insert records a, a question find does not hold, doubling the table first
// if a would fill more than half of it.
func (t *answerTable) insert(a answerSlot) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]answerSlot, 2*len(old))
		t.shift--
		for i := range old {
			if old[i].epoch == t.epoch {
				t.place(old[i])
			}
		}
	}
	t.place(a)
	t.used++
}

// place writes a into the first empty slot of its probe sequence.
func (t *answerTable) place(a answerSlot) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(a.algo, a.bits)
	for t.slots[i].epoch == t.epoch {
		i = (i + 1) & mask
	}
	t.slots[i] = a
}
