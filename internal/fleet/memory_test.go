package fleet_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"raqo/internal/core"
)

// retainedHeap is the live heap after two collections.
func retainedHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestFleetForwardingMemoryBounded holds a two-node fleet's retained heap
// flat under forwarded requests that each bring something new, by the
// server's N-then-4N rule (internal/server's checkHeapFlat): budget-mode
// POST /v1/optimize bodies, each with a containerGB never seen before,
// all sent into node A for a query node B owns. Every request is a hop:
// A files B's answer in its response memo (bounded), and B plans under
// new conditions, a new cost-memo context of six entries (bounded by
// core.MaxMemoEntries). Both nodes live in this process, so the reading
// covers both ends of the hop and the peer connection between them.
func TestFleetForwardingMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of requests; the bound is not meaningful under -short")
	}
	const slack = 2 << 20
	nodes := startTestFleet(t, 2)
	owner := ownerOf(nodes, "q/Q3")
	a := nodes[0]
	if a.addr == owner {
		a = nodes[1]
	}
	h := a.node.Handler()
	serve := func(i int) {
		gb := strconv.FormatFloat(4+float64(i)*1e-6, 'g', -1, 64)
		body := `{"query":"Q3","mode":"budget","containers":10,"containerGB":` + gb + `}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Raqo-Fleet-Node") != owner {
			t.Fatalf("request %d: HTTP %d from %q, want a 200 from the owner %q: %.200s", i, rec.Code, rec.Header().Get("X-Raqo-Fleet-Node"), owner, rec.Body)
		}
	}
	n := core.MaxMemoEntries / 4
	i := 0
	for ; i < n; i++ {
		serve(i)
	}
	base := retainedHeap()
	for ; i < 4*n; i++ {
		serve(i)
	}
	grew := retainedHeap() - base
	t.Logf("retained heap grew %+.2f MB from %d to %d forwarded requests", float64(grew)/(1<<20), n, 4*n)
	if grew > slack {
		t.Errorf("retained heap grew %.1f MB from %d to %d forwarded requests, slack %.1f MB", float64(grew)/(1<<20), n, 4*n, float64(slack)/(1<<20))
	}
	if v := a.node.Metrics().Forwards.With("/v1/optimize").Value(); v != int64(4*n) {
		t.Errorf("node A forwarded %d requests, want %d", v, 4*n)
	}
}
