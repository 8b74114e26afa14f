package server

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

// TestServerMemoryBounded holds a long-lived server's retained heap flat
// under requests that each bring something new: budget-mode POST
// /v1/optimize with a containerGB never seen before, so every request
// plans under new conditions, a new cost-memo context of six entries.
// Between N and 4N requests the heap may grow by a fixed slack, not with
// the requests. N fills the cost memo to its bound; the slack covers its
// tables settling at their steady size (+0.9 MB measured, flat from 3N on;
// +32.6 MB when the memo grew without bound).
func TestServerMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of plans; the bound is not meaningful under -short")
	}
	s, err := New(Config{RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	i := 0
	post := func(n int) {
		for end := i + n; i < end; i++ {
			gb := strconv.FormatFloat(4+float64(i)*1e-6, 'g', -1, 64)
			req := httptest.NewRequest(http.MethodPost, "/v1/optimize",
				strings.NewReader(`{"query":"Q3","mode":"budget","containers":10,"containerGB":`+gb+`}`))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("request %d: status %d, body %s", i, rec.Code, rec.Body)
			}
		}
	}
	const n, slack = core.MaxMemoEntries / 4, 2 << 20
	post(n)
	base := retainedHeap()
	post(3 * n)
	grew := retainedHeap() - base
	t.Logf("retained heap grew %+.2f MB from %d to %d requests", float64(grew)/(1<<20), n, 4*n)
	if grew > slack {
		t.Errorf("retained heap grew %.1f MB from %d to %d requests, slack %.1f MB", float64(grew)/(1<<20), n, 4*n, float64(slack)/(1<<20))
	}
}
