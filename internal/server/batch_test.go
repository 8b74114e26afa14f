package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/workload"
)

// postBatch sends body to h as a /v1/batch request.
func postBatch(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	return rec
}

// batchBody is a /v1/batch body naming queries.
func batchBody(t *testing.T, queries []string) string {
	t.Helper()
	b, err := json.Marshal(BatchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBatchQueryDomain: a batch names 1 to maxBatchQueries queries; a
// longer list is refused before admission, and a body still carrying the
// retired parallel field is refused by strict decoding.
func TestBatchQueryDomain(t *testing.T) {
	s, err := New(Config{RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	names := make([]string, maxBatchQueries+1)
	for i := range names {
		names[i] = workload.Q12
	}

	rec := postBatch(h, batchBody(t, names[:maxBatchQueries]))
	if rec.Code != http.StatusOK {
		t.Fatalf("%d queries: HTTP %d: %s", maxBatchQueries, rec.Code, rec.Body)
	}
	var out struct {
		Results []wireOptimize `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != maxBatchQueries {
		t.Fatalf("%d queries answered %d results", maxBatchQueries, len(out.Results))
	}

	rec = postBatch(h, batchBody(t, names))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "at most 64 queries per batch") {
		t.Fatalf("%d queries: HTTP %d: %s, want 400 at most 64 queries per batch", len(names), rec.Code, rec.Body)
	}
	for _, body := range []string{`{"queries":[]}`, `{"queries":["Q12"],"parallel":4}`} {
		if rec := postBatch(h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d: %s, want 400", body, rec.Code, rec.Body)
		}
	}
}

// peakModel records the most Cost calls in progress at once across every
// model sharing its counters; each call sleeps briefly so that two
// planning goroutines would overlap inside it.
type peakModel struct {
	cost.Model
	active, peak *atomic.Int64
}

func (p peakModel) Cost(ss, cs, nc float64) float64 {
	n := p.active.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(time.Microsecond)
	defer p.active.Add(-1)
	return p.Model.Cost(ss, cs, nc)
}

// TestBatchPlansOneQueryAtATime: a batch holds one admission slot and
// plans its queries one after another on one goroutine, so on a 1-slot
// server no two cost evaluations ever run at once. The wrapped set is the
// paper's: its floored costs end every hill climb at once, which keeps the
// sleep in each evaluation cheap (the served set makes this test 50x
// slower), and the test reads no plan.
func TestBatchPlansOneQueryAtATime(t *testing.T) {
	var active, peak atomic.Int64
	models := cost.NewModels()
	for _, a := range plan.Algos {
		m, _ := cost.PaperModels().For(a)
		models.Set(a, peakModel{Model: m, active: &active, peak: &peak})
	}
	s, err := New(Config{
		Options:         core.Options{Models: models},
		MaxInFlight:     1,
		RecalInterval:   -1,
		HistoryInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var names []string
	for i := 0; i < 4; i++ {
		names = append(names, workload.QueryNames...)
	}
	if rec := postBatch(s.Handler(), batchBody(t, names)); rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("peak concurrent cost evaluations = %d, want 1", got)
	}
}

// TestBatchMatchesFresh: every /v1/batch entry carries the plan, modelled
// time and money of a fresh memory-aware optimizer, as every /v1/optimize
// answer does (TestServedMatchesFresh), whatever the batch planned before
// it.
func TestBatchMatchesFresh(t *testing.T) {
	o := newServedOracle(t)
	order := []int{0, 1, 2, 3, 3, 2, 1, 0}
	names := make([]string, len(order))
	for k, i := range order {
		names[k] = workload.QueryNames[i]
	}
	for m := range o.models {
		for _, supplied := range []bool{false, true} {
			s := o.newServed(t, m, supplied)
			rec := postBatch(s.Handler(), batchBody(t, names))
			if rec.Code != http.StatusOK {
				t.Fatalf("model set %d: HTTP %d: %s", m, rec.Code, rec.Body)
			}
			var out struct {
				Results []wireOptimize `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != len(order) {
				t.Fatalf("%d results for %d queries", len(out.Results), len(order))
			}
			for k, i := range order {
				got := out.Results[k]
				want := o.decision(t, m, i, OptimizeRequest{Query: names[k]})
				p, err := plan.Decode(s.sch, got.Plan)
				if err != nil {
					t.Fatalf("entry %d (%s): %v", k, names[k], err)
				}
				if got.Query != names[k] ||
					math.Float64bits(got.TimeSeconds) != math.Float64bits(want.Time) ||
					math.Float64bits(got.MoneyDollars) != math.Float64bits(float64(want.Money)) ||
					p.SignatureWithResources() != want.Plan.SignatureWithResources() {
					t.Fatalf("model set %d, supplied %v, entry %d (%s):\n served %.6gs $%.6g %s\n fresh  %.6gs $%.6g %s",
						m, supplied, k, got.Query, got.TimeSeconds, got.MoneyDollars, p.SignatureWithResources(),
						want.Time, float64(want.Money), want.Plan.SignatureWithResources())
				}
			}
			_ = s.Close()
		}
	}
}

// TestBatchClientCancellation: a client that goes away while its batch
// plans gets 499, and the cancellation is counted.
func TestBatchClientCancellation(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s, err := New(Config{
		Options:         core.Options{Models: gatedModels(t, started, release)},
		RecalInterval:   -1,
		HistoryInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"queries":["All","Q3"]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch never reached the planner")
	}
	cancel()
	close(release)
	wg.Wait()
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body %s)", rec.Code, statusClientClosedRequest, rec.Body)
	}
	if got := s.Metrics().Cancelled.Value(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// TestPriceModeNamesRandomizedPlanner: price mode always searches the
// randomized planner's Pareto archive, so its answer names that planner on
// a Selinger server, both when planned and when replayed from the
// response memo.
func TestPriceModeNamesRandomizedPlanner(t *testing.T) {
	s, err := New(Config{RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := `{"query":"Q12","mode":"price","budgetDollars":1}`
	for _, what := range []string{"planned", "memo hit"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", what, rec.Code, rec.Body)
		}
		var got wireOptimize
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Planner != core.FastRandomized.String() {
			t.Errorf("%s: planner = %q, want %q", what, got.Planner, core.FastRandomized)
		}
	}
	if hits := s.memo.hits.Value(); hits != 1 {
		t.Errorf("response memo hits = %d, want 1 (the repeat)", hits)
	}
}
