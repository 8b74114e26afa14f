package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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

// checkHeapFlat serves requests 0..n-1 through serve, reads the retained
// heap, serves requests n..4n-1 and fails when the heap grew by more than
// slack in between.
func checkHeapFlat(t *testing.T, n int, slack int64, serve func(i int)) {
	t.Helper()
	i := 0
	for ; i < n; i++ {
		serve(i)
	}
	base := retainedHeap()
	for ; i < 4*n; i++ {
		serve(i)
	}
	grew := retainedHeap() - base
	t.Logf("retained heap grew %+.2f MB from %d to %d requests", float64(grew)/(1<<20), n, 4*n)
	if grew > slack {
		t.Errorf("retained heap grew %.1f MB from %d to %d requests, slack %.1f MB", float64(grew)/(1<<20), n, 4*n, float64(slack)/(1<<20))
	}
}

// serveOK answers one request on s and fails unless it is a 200.
func serveOK(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d, body %s", method, path, rec.Code, rec.Body)
	}
	return rec
}

// TestServerMemoryBounded holds a long-lived server's retained heap flat
// under requests that each bring something new. Between N and 4N requests
// the heap may grow by a fixed slack, not with the requests.
func TestServerMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of requests; the bound is not meaningful under -short")
	}
	const slack = 2 << 20

	// Budget-mode POST /v1/optimize with a containerGB never seen before:
	// every request plans under new conditions, a new cost-memo context of
	// six entries. N fills the cost memo to its bound; the slack covers
	// its tables settling at their steady size (+0.9 MB measured, flat
	// from 3N on; +32.6 MB when the memo grew without bound).
	t.Run("optimize", func(t *testing.T) {
		s, err := New(Config{RecalInterval: -1, HistoryInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		checkHeapFlat(t, core.MaxMemoEntries/4, slack, func(i int) {
			gb := strconv.FormatFloat(4+float64(i)*1e-6, 'g', -1, 64)
			serveOK(t, s, http.MethodPost, "/v1/optimize", `{"query":"Q3","mode":"budget","containers":10,"containerGB":`+gb+`}`)
		})
	})

	// GET /v1/history over a window no request read before, on a store
	// holding a week of once-a-minute points (the 1m level's retention):
	// step 60k for k = 1, 2, …, each step's rows read ten at a time in
	// order, so every request answers rows the row memo has never held.
	// The store does not change, so only the memo could grow with the
	// requests (by about 300 B a row, about ten rows a request, without
	// its bound).
	t.Run("history", func(t *testing.T) {
		s, err := New(Config{HistoryDir: filepath.Join(t.TempDir(), "history"), RecalInterval: -1, HistoryInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const hour0, minutes = 1_700_001_200, 7 * 24 * 60
		for m := int64(0); m < minutes; m++ {
			s.hist.Record("mem.rows", hour0+m*60, float64(m%997)/64)
		}
		if err := s.hist.Commit(); err != nil {
			t.Fatal(err)
		}
		k, from := int64(1), int64(hour0)
		checkHeapFlat(t, 2048, slack, func(int) {
			if from >= hour0+minutes*60 {
				k, from = k+1, hour0
			}
			to := from + 10*60*k
			rec := serveOK(t, s, http.MethodGet, fmt.Sprintf("/v1/history?series=mem.rows&from=%d&to=%d&step=%d", from, to, 60*k), "")
			if !strings.Contains(rec.Body.String(), `"start"`) {
				t.Fatalf("step %d from %d: no rows", 60*k, from)
			}
			from = to
		})
	})

	// POST /v1/feedback batches of eight observations whose signatures no
	// batch sent before, all at one timestamp, so the history store's
	// buckets stay put and only what the server keeps per signature could
	// grow.
	t.Run("feedback", func(t *testing.T) {
		s, err := New(Config{HistoryDir: filepath.Join(t.TempDir(), "history"), RecalInterval: -1, HistoryInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		at := strconv.FormatInt(time.Now().Unix(), 10)
		checkHeapFlat(t, 2048, slack, func(i int) {
			var b strings.Builder
			b.WriteString(`{"observations":[`)
			for j := 0; j < 8; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"signature":"mem-%d-%d","engine":"hive","predictedSeconds":%d,"observedSeconds":40,"observedAt":%s,`+
					`"operators":[{"algo":"SMJ","ssGB":1.5,"csGB":4,"nc":10,"predictedSeconds":%d,"observedSeconds":40}]}`, i, j, 10+j, at, 10+j)
			}
			b.WriteString(`]}`)
			serveOK(t, s, http.MethodPost, "/v1/feedback", b.String())
		})
	})
}
