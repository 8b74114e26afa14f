package server

import (
	"sync"

	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/telemetry"
)

const (
	// memoEntries bounds the response memo (FIFO eviction). A serving
	// working set is a few recurring request shapes; 256 is what the
	// fleet's hot cache held before it was folded in here.
	memoEntries = 256
	// memoEntryBytes bounds len(request body)+len(response) of one entry,
	// so request bodies padded to the 1 MB body limit cannot pin
	// 256 MB: the memo holds at most memoEntries*memoEntryBytes = 16 MB.
	// The largest TPC-H answer (All, 8 relations) is under 4 KB.
	memoEntryBytes = 64 << 10
)

// responseMemo is the exact-hit tier of POST /v1/optimize: request body
// bytes → the encoded 200 body that answered them. It is the only tier
// keyed by the whole request, so a hit skips decode, admission, planning
// and encode alike; only 200s are filed.
//
// Every entry belongs to one *cost.Models pointer — the set the optimizer
// had loaded for the planning run that produced it — and the memo is
// discarded wholesale when the optimizer's pointer moves (the channel
// core.Incremental follows). A model *version* would not do: Recalibrate
// and Install publish the new version before the OnSwap hook repoints the
// optimizer, so in that window an old-model answer would be filed under
// the new version.
type responseMemo struct {
	opt  *core.Optimizer // whose live model set the entries belong to
	hits *telemetry.Counter

	mu      sync.Mutex
	models  *cost.Models        // guarded by mu — the set every entry was planned under
	entries map[string][]byte   // guarded by mu
	order   [memoEntries]string // guarded by mu — insertion ring; order[next] is the oldest once full
	next    int                 // guarded by mu
}

func newResponseMemo(opt *core.Optimizer, hits *telemetry.Counter) *responseMemo {
	return &responseMemo{opt: opt, hits: hits, entries: make(map[string][]byte, memoEntries)}
}

// syncLocked discards every entry planned under a set the optimizer has
// left and returns the live set. Reading the optimizer's pointer under mu
// orders get and put against each other: once a get has seen a new set,
// no put can file under the old one.
func (m *responseMemo) syncLocked() *cost.Models {
	live := m.opt.Models()
	if m.models != live {
		clear(m.entries)
		m.models, m.next = live, 0
	}
	return live
}

// get returns the stored response for body under the live model set,
// and that set: on a miss the caller hands it back to put with the answer
// it goes on to produce. The returned bytes are shared and must not be
// modified.
func (m *responseMemo) get(body []byte) (resp []byte, live *cost.Models, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	live = m.syncLocked()
	resp, ok = m.entries[string(body)]
	if ok {
		m.hits.Inc()
	}
	return resp, live, ok
}

// put files resp as the answer to body. planned is the set get returned
// before the answer was produced; if the optimizer has moved on since, the
// answer may predate the swap and is dropped. The memo keeps resp; the
// caller must not modify it afterwards.
func (m *responseMemo) put(body, resp []byte, planned *cost.Models) {
	if len(body)+len(resp) > memoEntryBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.syncLocked() != planned {
		return
	}
	if _, ok := m.entries[string(body)]; ok {
		return // a concurrent miss of the same body filed first
	}
	if len(m.entries) == memoEntries {
		delete(m.entries, m.order[m.next])
	}
	key := string(body)
	m.entries[key] = resp
	m.order[m.next] = key
	m.next = (m.next + 1) % memoEntries
}

// len reports how many entries are valid under the live model set.
func (m *responseMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncLocked()
	return len(m.entries)
}
