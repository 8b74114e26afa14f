package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"raqo/internal/feedback"
	"raqo/internal/history"
)

// histBase is a fixed, minute-aligned wall-clock-scale timestamp so
// history assertions never depend on the test host's clock.
const histBase = int64(1_699_999_980)

func getHistory(t *testing.T, base, query string, wantCode int) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/history" + query)
	if err != nil {
		t.Fatalf("GET /v1/history%s: %v", query, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET /v1/history%s status = %d, want %d", query, resp.StatusCode, wantCode)
	}
	return resp
}

func TestHistoryEndpointServesFeedbackSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{HistoryDir: t.TempDir()})

	obs := make([]feedback.Observation, 3)
	for i := range obs {
		obs[i] = validObservation(i)
		obs[i].ObservedAt = histBase + int64(60*i)
	}
	resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Observations: obs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Without ?series= the endpoint lists what the store has seen. The
	// batch was committed before the 200, so the points are visible.
	var list HistorySeriesResponse
	decodeBodyInto(t, getHistory(t, ts.URL, "", http.StatusOK), &list)
	if list.Points == 0 {
		t.Fatalf("no committed points: %+v", list)
	}
	seen := make(map[string]bool, len(list.Series))
	for _, n := range list.Series {
		seen[n] = true
	}
	for _, want := range []string{"feedback.relerr.hive.query", "feedback.relerr.hive.SMJ"} {
		if !seen[want] {
			t.Fatalf("series %q missing from %v", want, list.Series)
		}
	}

	// A minute-step range query returns one bucket per observation, and
	// validObservation's 4x prediction shows up as relative error 3.
	q := fmt.Sprintf("?series=feedback.relerr.hive.query&from=%d&to=%d&step=60", histBase, histBase+180)
	var hr HistoryResponse
	decodeBodyInto(t, getHistory(t, ts.URL, q, http.StatusOK), &hr)
	if len(hr.Buckets) != 3 {
		t.Fatalf("got %d buckets, want 3: %+v", len(hr.Buckets), hr.Buckets)
	}
	for i, b := range hr.Buckets {
		if b.Start != histBase+int64(60*i) || b.Count != 1 {
			t.Fatalf("bucket %d = %+v", i, b)
		}
		if b.Mean < 2.9 || b.Mean > 3.1 {
			t.Fatalf("bucket %d mean = %g, want ~3", i, b.Mean)
		}
	}

	// Error mapping: unknown series is 404, a bad range parameter 400.
	getHistory(t, ts.URL, "?series=no.such.series", http.StatusNotFound).Body.Close()
	getHistory(t, ts.URL, "?series=feedback.relerr.hive.query&step=x", http.StatusBadRequest).Body.Close()
	getHistory(t, ts.URL, fmt.Sprintf("?series=feedback.relerr.hive.query&from=%d&to=%d", histBase, histBase), http.StatusBadRequest).Body.Close()
	// So is a range whose step or aligned start leaves int64.
	getHistory(t, ts.URL, fmt.Sprintf("?series=feedback.relerr.hive.query&step=%d", int64(math.MaxInt64-100)), http.StatusBadRequest).Body.Close()
	getHistory(t, ts.URL, fmt.Sprintf("?series=feedback.relerr.hive.query&from=%d&to=%d", int64(math.MinInt64+1), histBase+180), http.StatusBadRequest).Body.Close()
}

func TestHistoryEndpointDisabledWithoutDir(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	getHistory(t, ts.URL, "", http.StatusNotFound).Body.Close()
}

// TestHistoryListingSorted: GET /v1/history lists series sorted, whatever
// order they were registered in.
func TestHistoryListingSorted(t *testing.T) {
	s, ts := newTestServer(t, Config{HistoryDir: t.TempDir()})
	for _, name := range []string{"beta", "alpha"} {
		if _, err := s.History().Series(name); err != nil {
			t.Fatal(err)
		}
	}
	var list HistorySeriesResponse
	decodeBodyInto(t, getHistory(t, ts.URL, "", http.StatusOK), &list)
	if !slices.Equal(list.Series, []string{"alpha", "beta"}) {
		t.Fatalf("listed series %v, want [alpha beta]", list.Series)
	}
}

// TestHistoryGatherSanitizesLabels: telemetry labels (endpoints, tenant
// names) may carry spaces, which history.Series rejects. The gather must
// sanitize the derived series name instead of wedging on a sticky
// registration error that fails every later commit.
func TestHistoryGatherSanitizesLabels(t *testing.T) {
	s, ts := newTestServer(t, Config{HistoryDir: t.TempDir()})
	s.metrics.Requests.With("bad endpoint").Inc()
	if err := s.gatherHistory(histBase); err != nil {
		t.Fatalf("gather with space-bearing label: %v", err)
	}
	// The next gather must also succeed — a sticky Record error would
	// surface here even if the first Commit slipped through.
	if err := s.gatherHistory(histBase + 60); err != nil {
		t.Fatalf("second gather: %v", err)
	}
	q := fmt.Sprintf("?series=raqo_http_requests_total.bad_endpoint&from=%d&to=%d&step=60", histBase, histBase+120)
	var hr HistoryResponse
	decodeBodyInto(t, getHistory(t, ts.URL, q, http.StatusOK), &hr)
	if len(hr.Buckets) != 2 || hr.Buckets[0].Max < 1 {
		t.Fatalf("sanitized series not gathered: %+v", hr.Buckets)
	}
}

func TestHistoryGatherSamplesTelemetry(t *testing.T) {
	s, ts := newTestServer(t, Config{HistoryDir: t.TempDir()})
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// Two gather ticks a minute apart: every telemetry series lands in the
	// store, including the request counter the /healthz call bumped.
	if err := s.gatherHistory(histBase); err != nil {
		t.Fatal(err)
	}
	if err := s.gatherHistory(histBase + 60); err != nil {
		t.Fatal(err)
	}
	q := fmt.Sprintf("?series=raqo_http_requests_total./healthz&from=%d&to=%d&step=60", histBase, histBase+120)
	var hr HistoryResponse
	decodeBodyInto(t, getHistory(t, ts.URL, q, http.StatusOK), &hr)
	if len(hr.Buckets) != 2 {
		t.Fatalf("got %d buckets, want 2: %+v", len(hr.Buckets), hr.Buckets)
	}
	if hr.Buckets[0].Max < 1 {
		t.Fatalf("request counter not gathered: %+v", hr.Buckets[0])
	}
	// The store's own func-backed metrics round-trip through the gather,
	// so its growth is observable from its own history.
	var list HistorySeriesResponse
	decodeBodyInto(t, getHistory(t, ts.URL, "", http.StatusOK), &list)
	found := false
	for _, n := range list.Series {
		if n == "raqo_history_points_total" {
			found = true
		}
	}
	if !found {
		t.Fatalf("store self-metrics missing from %v", list.Series)
	}
}

// TestFeedbackHistoryCommitFailure: a /v1/feedback batch whose history
// commit fails is answered 500, not acknowledged — the store's sticky
// Record error stands in for the failing write — and the next batch
// commits again.
func TestFeedbackHistoryCommitFailure(t *testing.T) {
	s, err := New(Config{HistoryDir: t.TempDir(), RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	post := func() int {
		body, err := json.Marshal(FeedbackRequest{Observations: []feedback.Observation{validObservation(0)}})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
		return w.Code
	}
	s.History().Record("not a series name", 1, 1) // fails at the next Commit
	if code := post(); code != http.StatusInternalServerError {
		t.Fatalf("batch whose history commit fails: %d, want 500", code)
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("batch after the failure: %d, want 200", code)
	}
}

// TestFeedbackObservedAtDomain: POST /v1/feedback answers 400 for an
// observedAt more than feedback.MaxClockSkewSeconds ahead of the server
// clock and for a negative one, and the refused batches leave the history
// store answering as before, across a restart. Accepted, the point stamped
// ten years ahead would move the store's high-water mark there, and the
// restart's seal and retention pass would age out its whole past: the
// two-hour range below would lose its 120 buckets. Old timestamps stay
// accepted.
func TestFeedbackObservedAtDomain(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{HistoryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	post := func(ats ...int64) int {
		t.Helper()
		obs := make([]feedback.Observation, len(ats))
		for i, at := range ats {
			obs[i] = validObservation(i)
			obs[i].ObservedAt = at
		}
		resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Observations: obs})
		resp.Body.Close()
		return resp.StatusCode
	}
	now := time.Now().Unix()
	start := now/60*60 - 7200
	past := make([]int64, 120)
	for i := range past {
		past[i] = start + int64(60*i)
	}
	if code := post(past...); code != http.StatusOK {
		t.Fatalf("two hours of honest points: status %d", code)
	}
	q := fmt.Sprintf("?series=feedback.relerr.hive.query&from=%d&to=%d&step=60", start, start+7200)
	var before HistoryResponse
	decodeBodyInto(t, getHistory(t, ts.URL, q, http.StatusOK), &before)
	if len(before.Buckets) != 120 {
		t.Fatalf("the two-hour range has %d buckets, want 120", len(before.Buckets))
	}
	for _, at := range []int64{now + 10*365*86400, now + 2*feedback.MaxClockSkewSeconds, -1, math.MinInt64} {
		if code := post(now, at); code != http.StatusBadRequest {
			t.Errorf("observedAt %d (server clock %d): status %d, want 400", at, now, code)
		}
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts = newTestServer(t, Config{HistoryDir: dir})
	var after HistoryResponse
	decodeBodyInto(t, getHistory(t, ts.URL, q, http.StatusOK), &after)
	if !reflect.DeepEqual(after, before) {
		t.Errorf("after a restart the two-hour range has %d buckets, had %d", len(after.Buckets), len(before.Buckets))
	}
	// A 2023 timestamp, as the repository benchmark sends, and one just
	// inside the skew.
	if code := post(1_672_531_200, now+feedback.MaxClockSkewSeconds/2); code != http.StatusOK {
		t.Fatalf("old and slightly early timestamps: status %d, want 200", code)
	}
}

// TestHistoryReadFailureIs500: a raw read the store cannot do — a sealed
// segment removed after the server opened the store — is the server's
// failure, a 500, where a query's own bad arguments are a 400.
func TestHistoryReadFailureIs500(t *testing.T) {
	dir := t.TempDir()
	st, err := history.Open(dir, history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st.Record("probe", histBase, 1)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(sealed) == 0 {
		t.Fatalf("no segment written: %v %v", sealed, err)
	}
	s, err := New(Config{HistoryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	get := func(query string) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/history"+query, nil))
		return rec.Code
	}
	q := fmt.Sprintf("?series=probe&from=%d&to=%d&step=1", histBase, histBase+60)
	if code := get(q); code != http.StatusOK {
		t.Fatalf("query before the removal: HTTP %d", code)
	}
	for _, path := range sealed {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	if code := get(q); code != http.StatusInternalServerError {
		t.Errorf("raw read of a removed segment: HTTP %d, want 500", code)
	}
	if code := get(fmt.Sprintf("?series=probe&from=%d&to=%d&step=0", histBase, histBase+60)); code != http.StatusBadRequest {
		t.Errorf("step=0: HTTP %d, want 400", code)
	}
}
