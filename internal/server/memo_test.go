package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/workload"
)

// optimizeDirect posts body to /v1/optimize through the handler stack
// without a socket.
func optimizeDirect(ctx context.Context, s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// mustOptimize is optimizeDirect for a request that must be a 200, and
// reports whether the response memo answered it.
func mustOptimize(t *testing.T, s *Server, body string) (resp []byte, hit bool) {
	t.Helper()
	before := s.Metrics().MemoHits.Value()
	rec := optimizeDirect(context.Background(), s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("optimize %s: status %d, body %s", body, rec.Code, rec.Body)
	}
	return rec.Body.Bytes(), s.Metrics().MemoHits.Value() == before+1
}

var elapsedField = regexp.MustCompile(`"elapsedMicros": \d+`)

// sansElapsed blanks the one wall-clock field of an optimize response.
func sansElapsed(b []byte) string {
	return elapsedField.ReplaceAllString(string(b), `"elapsedMicros": X`)
}

// TestMemoHitEqualsForcedMiss is the memo's oracle: the stored bytes a
// repeat is answered with are what planning the request again would
// produce. A forced miss is the same JSON document with different
// insignificant whitespace — another memo key, the same request. Each
// case is planned twice under such keys first, so the cost memo and
// resource-plan cache are in the steady state a repeat would find (a
// warm plan reports fewer resourceIterations than the cold one).
func TestMemoHitEqualsForcedMiss(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, q := range workload.QueryNames {
		bodies = append(bodies,
			fmt.Sprintf(`{"query":%q}`, q),
			fmt.Sprintf(`{"query":%q,"mode":"fixed","containers":8,"containerGB":8}`, q),
			fmt.Sprintf(`{"query":%q,"mode":"budget","containers":10,"containerGB":4}`, q),
			fmt.Sprintf(`{"query":%q,"mode":"price","budgetDollars":1e9}`, q),
		)
	}
	bodies = append(bodies,
		`{"relations":["lineitem","orders"]}`,
		`{"relations":["orders","lineitem"]}`,
		`{"relations":["customer","orders","lineitem","supplier","nation"],"mode":"budget","containers":20,"containerGB":6}`,
	)
	for _, body := range bodies {
		for _, pad := range []string{"\n", "\n\n"} {
			if _, hit := mustOptimize(t, s, body+pad); hit {
				t.Fatalf("%s: warm-up variant was a memo hit", body)
			}
		}
		first, hit := mustOptimize(t, s, body)
		if hit {
			t.Fatalf("%s: first request was a memo hit", body)
		}
		repeat, hit := mustOptimize(t, s, body)
		if !hit {
			t.Fatalf("%s: repeat was not a memo hit", body)
		}
		if !bytes.Equal(first, repeat) {
			t.Errorf("%s: memo hit differs from the answer it stored:\n got %s\nwant %s", body, repeat, first)
		}
		forced, hit := mustOptimize(t, s, body+" ")
		if hit {
			t.Fatalf("%s: forced miss was a memo hit", body)
		}
		if got, want := sansElapsed(repeat), sansElapsed(forced); got != want {
			t.Errorf("%s: memo hit differs from a forced miss:\n got %s\nwant %s", body, got, want)
		}
	}
}

// TestMemoFilesOnly200s checks that no error answer is ever stored: after
// each of a 400 (malformed, unknown query), 422, 429 and 499 the memo is
// empty, and the request that drew the 429 and the 499 is planned — not
// replayed — once the condition clears.
func TestMemoFilesOnly200s(t *testing.T) {
	s, err := New(Config{MaxInFlight: 1, QueueTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(ctx context.Context, body string, want int) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if rec := optimizeDirect(ctx, s, body); rec.Code != want {
				t.Fatalf("%s: status %d, want %d (body %s)", body, rec.Code, want, rec.Body)
			}
		}
		if n := s.memo.len(); n != 0 {
			t.Fatalf("%s: memo holds %d entries after a %d", body, n, want)
		}
	}
	bg := context.Background()
	expect(bg, `{"query": `, http.StatusBadRequest)
	expect(bg, `{"query":"Q99"}`, http.StatusBadRequest)
	expect(bg, `{"query":"Q12","mode":"price"}`, http.StatusUnprocessableEntity)

	s.admit.slots <- struct{}{} // the one planning slot is busy
	expect(bg, `{"query":"Q12"}`, http.StatusTooManyRequests)
	<-s.admit.slots

	cancelled, cancel := context.WithCancel(bg)
	cancel()
	expect(cancelled, `{"query":"Q12"}`, statusClientClosedRequest)

	if s.Metrics().MemoHits.Value() != 0 {
		t.Fatalf("memo hits = %d after error answers only", s.Metrics().MemoHits.Value())
	}
	if _, hit := mustOptimize(t, s, `{"query":"Q12"}`); hit {
		t.Fatal("first 200 was a memo hit")
	}
	// A hit does no planning work, so it needs no slot and no live client
	// context.
	s.admit.slots <- struct{}{}
	if rec := optimizeDirect(cancelled, s, `{"query":"Q12"}`); rec.Code != http.StatusOK {
		t.Fatalf("memo hit with the planner saturated: status %d", rec.Code)
	}
	<-s.admit.slots
	if s.Metrics().MemoHits.Value() != 1 {
		t.Fatalf("memo hits = %d, want 1", s.Metrics().MemoHits.Value())
	}
}

// TestMemoBounds pins the two bounds: FIFO eviction at memoEntries, and
// the per-entry byte cap that keeps padded bodies out.
func TestMemoBounds(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := func(i int) string { return fmt.Sprintf(`{"query":"Q12","containers":%d}`, i) }
	for i := 0; i < memoEntries+3; i++ {
		mustOptimize(t, s, body(i))
		if want := min(i+1, memoEntries); s.memo.len() != want {
			t.Fatalf("after %d distinct bodies the memo holds %d entries, want %d", i+1, s.memo.len(), want)
		}
	}
	for _, tc := range []struct {
		i   int
		hit bool
	}{{3, true}, {memoEntries + 2, true}, {2, false}, {0, false}} {
		// Planning bodies 2 and 0 again files them and evicts 3 and 4,
		// but 3 was asked for before that.
		if _, hit := mustOptimize(t, s, body(tc.i)); hit != tc.hit {
			t.Errorf("body %d: memo hit = %v, want %v (the oldest three were evicted)", tc.i, hit, tc.hit)
		}
	}

	n := s.memo.len()
	padded := `{"query":"Q12"}` + strings.Repeat(" ", memoEntryBytes)
	for i := 0; i < 2; i++ {
		if _, hit := mustOptimize(t, s, padded); hit {
			t.Fatal("a body over the per-entry byte cap was answered from the memo")
		}
	}
	if s.memo.len() != n {
		t.Fatalf("memo grew from %d to %d entries on an over-cap body", n, s.memo.len())
	}
}

// taggedModels is a model set under which every operator costs v seconds
// at any resources, so Q12's one join makes timeSeconds == v: the answer
// names the set that planned it.
func taggedModels(v uint64) *cost.Models {
	ms := cost.NewModels()
	for _, a := range plan.Algos {
		ms.Set(a, cost.ModelFunc{
			ModelName: fmt.Sprintf("tag%d-%s", v, a),
			Fn:        func(_, _, _ float64) float64 { return float64(v) },
		})
	}
	return ms
}

// answeredUnder extracts the tag of the model set that planned a Q12
// answer.
func answeredUnder(t testing.TB, resp []byte) uint64 {
	var out wireOptimize
	if err := json.Unmarshal(resp, &out); err != nil {
		t.Errorf("decode %s: %v", resp, err)
		return 0
	}
	return uint64(out.TimeSeconds)
}

// TestMemoFollowsModelSwaps checks both swap paths: after Install and
// after Recalibrate the same body is planned again, under the new set.
func TestMemoFollowsModelSwaps(t *testing.T) {
	const body = `{"query":"Q12"}`
	replanned := func(t *testing.T, s *Server) []byte {
		t.Helper()
		plans := s.Metrics().Plans.Value()
		resp, hit := mustOptimize(t, s, body)
		if hit || s.Metrics().Plans.Value() == plans {
			t.Fatalf("request after the model swap was not planned again (memo hit %v)", hit)
		}
		if _, hit := mustOptimize(t, s, body); !hit {
			t.Fatal("repeat under the new models was not a memo hit")
		}
		return resp
	}

	t.Run("install", func(t *testing.T) {
		s, err := New(Config{Options: optionsWithModels(taggedModels(1))})
		if err != nil {
			t.Fatal(err)
		}
		mustOptimize(t, s, body)
		if resp, hit := mustOptimize(t, s, body); !hit || answeredUnder(t, resp) != 1 {
			t.Fatalf("repeat under the seed models: hit %v, answer %s", hit, resp)
		}
		if !s.Recalibrator().Install(2, taggedModels(2), 0) {
			t.Fatal("Install refused version 2")
		}
		if n := s.memo.len(); n != 0 {
			t.Errorf("memo reports %d live entries after the swap", n)
		}
		if got := answeredUnder(t, replanned(t, s)); got != 2 {
			t.Errorf("answer after Install planned under models %d, want 2", got)
		}
	})

	t.Run("recalibrate", func(t *testing.T) {
		s, err := New(Config{Options: optionsWithModels(skewedHiveModels(t, 4)), RecalInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		before, _ := mustOptimize(t, s, body)
		grid := workload.DefaultProfileGrid(execsim.Hive())[:40]
		for _, o := range feedback.SyntheticObservations("hive", s.Recalibrator().Models(), grid) {
			if err := s.Recalibrator().Feed(o); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Recalibrator().Recalibrate(); err != nil {
			t.Fatal(err)
		}
		var was, now wireOptimize
		if err := json.Unmarshal(before, &was); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(replanned(t, s), &now); err != nil {
			t.Fatal(err)
		}
		// The seed was skewed 4x; the recalibrated set is not.
		if now.TimeSeconds >= was.TimeSeconds/2 {
			t.Errorf("timeSeconds %g after recalibration, %g before: not planned under the retrained models", now.TimeSeconds, was.TimeSeconds)
		}
	})
}

// TestMemoNeverServesRetiredModels interleaves model installs with
// concurrent optimizes of one body (run it under -race). The recalibrator
// publishes a version before its OnSwap hooks repoint the optimizer, so
// the test's own hook — registered after the server's, hence run after the
// optimizer moved — records the newest set the optimizer is known to have
// loaded. A request that starts after that must never be answered under an
// older set, from the memo or otherwise.
func TestMemoNeverServesRetiredModels(t *testing.T) {
	const (
		body     = `{"query":"Q12"}`
		versions = 60
		clients  = 4
	)
	s, err := New(Config{Options: optionsWithModels(taggedModels(1)), MaxInFlight: clients})
	if err != nil {
		t.Fatal(err)
	}
	var loaded atomic.Uint64
	loaded.Store(1)
	s.Recalibrator().OnSwap(func(_ feedback.Recalibration, info *feedback.ModelInfo) {
		loaded.Store(info.Version)
	})

	var wg sync.WaitGroup
	var served atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for loaded.Load() < versions {
				floor := loaded.Load()
				rec := optimizeDirect(context.Background(), s, body)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
				if got := answeredUnder(t, rec.Body.Bytes()); got < floor {
					t.Errorf("answer planned under models %d; the optimizer had loaded %d before the request started", got, floor)
					return
				}
				served.Add(1)
			}
		}()
	}
	for v := uint64(2); v <= versions; v++ {
		// Let some requests through between swaps, so hits on the current
		// set and plans straddling the swap both occur.
		for n := served.Load(); served.Load() < n+3 && !t.Failed(); {
			time.Sleep(50 * time.Microsecond)
		}
		if !s.Recalibrator().Install(v, taggedModels(v), 0) {
			t.Fatalf("Install refused version %d", v)
		}
	}
	wg.Wait()
	if s.Metrics().MemoHits.Value() == 0 {
		t.Error("no request was answered from the memo; the interleaving exercised nothing")
	}
}

// TestTrailingDataRejected pins strict decoding on every POST endpoint:
// one JSON value, then only whitespace. A second value after it is a 400
// everywhere; trailing whitespace never is.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	obs, err := json.Marshal(FeedbackRequest{Observations: []feedback.Observation{validObservation(0)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/optimize", `{"query":"Q12"}`},
		{"/v1/batch", `{"queries":["Q12"]}`},
		{"/v1/feedback", string(obs)},
		{"/v1/submit", `{"query":"Q12"}`},
		{"/v1/cloud/submit", `{"query":"Q12"}`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			post := func(body string) int {
				resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				return resp.StatusCode
			}
			for _, trailing := range []string{`{"junk":1}`, ` x`, `]`, "\n1"} {
				if code := post(tc.body + trailing); code != http.StatusBadRequest {
					t.Errorf("body followed by %q: status %d, want 400", trailing, code)
				}
			}
			if code := post(tc.body + " \n\t\r\n"); code != http.StatusOK {
				t.Errorf("body followed by whitespace: status %d, want 200", code)
			}
			if code := post(tc.body); code != http.StatusOK {
				t.Errorf("plain body: status %d, want 200", code)
			}
		})
	}
}
