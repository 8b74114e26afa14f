// Benchmarks and allocation gate for the embedded history store: warm
// append throughput (the telemetry gather loop and feedback recorder
// both stream through Append/Record) and rollup-backed range queries over
// day-scale data. Run the timings with:
//
//	go test -bench History -benchtime=0.2s .
package raqo_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/server"
)

// benchHistoryStore opens a store in a per-test temp dir with a segment
// size large enough that ingest benchmarks measure append+commit, not
// seal churn.
func benchHistoryStore(tb testing.TB) *history.Store {
	tb.Helper()
	st, err := history.Open(tb.TempDir(), history.Config{SegmentMaxBytes: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return st
}

// benchHistorySeries registers n series on the store.
func benchHistorySeries(tb testing.TB, st *history.Store, n int) []*history.Series {
	tb.Helper()
	out := make([]*history.Series, n)
	for i := range out {
		s, err := st.Series(fmt.Sprintf("bench.series.%02d", i))
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestHistoryAppendAllocFree pins the acceptance bar on the ingest hot
// path: once the staging buffer has grown, Append is a 20-byte copy and
// must not allocate at all. (Rollup folding happens at Commit, off this
// path by design.)
func TestHistoryAppendAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds allocations; the gate holds on plain builds only")
	}
	if testing.Short() {
		t.Skip("alloc gate is not meaningful under -short")
	}
	st := benchHistoryStore(t)
	series := benchHistorySeries(t, st, 1)
	s := series[0]

	// Warm the staging buffer past what the measured runs will stage, then
	// Commit: the length resets, the capacity stays.
	const runs = 100_000
	for i := 0; i < 2*runs; i++ {
		st.Append(s, int64(i), 1.5)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}

	var ts int64 = 1 << 20
	if got := testing.AllocsPerRun(runs, func() {
		ts++
		st.Append(s, ts, 1.5)
	}); got > 0 {
		t.Errorf("warm Append allocates %.2f/op, ceiling 0", got)
	}
}

// BenchmarkHistoryAppend times the pure staging path: one point into the
// warm buffer. This is the per-point cost the gather loop pays inline.
func BenchmarkHistoryAppend(b *testing.B) {
	st := benchHistoryStore(b)
	s := benchHistorySeries(b, st, 1)[0]
	for i := 0; i < 1<<16; i++ {
		st.Append(s, int64(i), 1.5)
	}
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append(s, int64(i), 1.5)
		if i&0xffff == 0xffff { // bound staging memory; cap stays warm
			if err := st.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchHistoryQueryStore builds a committed store holding 48 virtual
// hours of once-a-minute samples on 8 series — the day-scale shape the
// long-horizon detector queries.
func benchHistoryQueryStore(tb testing.TB) *history.Store {
	tb.Helper()
	st := benchHistoryStore(tb)
	series := benchHistorySeries(tb, st, 8)
	for ts := int64(0); ts < 48*3600; ts += 60 {
		for i, s := range series {
			st.Append(s, ts, float64((ts/60+int64(i))%97)/10)
		}
	}
	if err := st.Commit(); err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkHistoryQueryRollup times an hour-step range query over the
// full 48h span — answered from the 1h rollup level, never the raw
// points.
func BenchmarkHistoryQueryRollup(b *testing.B) {
	st := benchHistoryQueryStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.Query("bench.series.00", 0, 48*3600, 3600)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 48 {
			b.Fatalf("got %d buckets, want 48", len(rows))
		}
	}
}

// BenchmarkHistoryQuantileRange times the long-horizon detector's
// baseline read: one p90 over a 24h window, folded from rollup sketches.
func BenchmarkHistoryQuantileRange(b *testing.B) {
	st := benchHistoryQueryStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, n, err := st.QuantileRange("bench.series.00", 0, 24*3600, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 || v <= 0 {
			b.Fatalf("empty quantile: v=%v n=%d", v, n)
		}
	}
}

// historyGETPath is the read the repository benchmark's feedback_rw
// workload makes: ten minute buckets of the query-level error series.
// (1 700 000 340 is on the minute grid.)
var historyGETPath = fmt.Sprintf("/v1/history?series=%s&from=%d&to=%d&step=60",
	feedback.RelErrSeries("hive", "query"), 1_700_000_340, 1_700_000_940)

// newHistoryBenchServer builds a server with a history store holding 16
// virtual minutes of feedback, 8 observations a second, committed per
// batch of eight as POST /v1/feedback commits them.
func newHistoryBenchServer(tb testing.TB) *server.Server {
	tb.Helper()
	s, err := server.New(server.Config{
		HistoryDir:      filepath.Join(tb.TempDir(), "history"),
		RecalInterval:   -1,
		HistoryInterval: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8*960; i++ {
		if err := s.Recalibrator().Feed(benchShapeObservation(rng, 1_700_000_000+int64(i/8))); err != nil {
			tb.Fatal(err)
		}
		if i%8 == 7 {
			if err := s.History().Commit(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// serveHistoryGET answers historyGETPath and checks it is ten buckets.
func serveHistoryGET(tb testing.TB, s *server.Server) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, historyGETPath, nil))
	if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `"start"`) != 10 {
		tb.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
}

// BenchmarkHistoryGET times one GET /v1/history through the full handler
// stack: parameter parsing, the rollup query and the encoded answer.
func BenchmarkHistoryGET(b *testing.B) {
	s := newHistoryBenchServer(b)
	serveHistoryGET(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHistoryGET(b, s)
	}
}
