package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"raqo/internal/cloud"
	"raqo/internal/scheduler"
)

// parentWriteJSON is WriteJSON as it was before the pooled indenter:
// json.Encoder with SetIndent straight onto w. WriteJSON is held to its
// bytes and its errors.
func parentWriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// checkWriteJSON encodes v with WriteJSON and parentWriteJSON and fails
// unless both wrote the same bytes and returned the same error.
func checkWriteJSON(t *testing.T, v any) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := WriteJSON(&got, v), parentWriteJSON(&want, v)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%#v: error %v, parent encoder %v", v, gotErr, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%#v:\nWriteJSON wrote\n%q\nthe parent encoder\n%q", v, got.Bytes(), want.Bytes())
	}
}

// awkward is a string with everything an encoder escapes or passes
// through: quotes, backslashes, control bytes, the JavaScript line
// separators, invalid UTF-8, HTML metacharacters and JSON punctuation.
const awkward = "q\"uo\\te\\\" ctl\x00\x01\x1f\t\n\r lsep\u2028psep\u2029 bad\xff\xfe\xc3 <a href='x'>&amp;</a> {[,:]} ünï"

// wireValues returns every response type the service writes, populated
// from a live server, plus the edge cases of the encoding itself.
func wireValues(t *testing.T) []any {
	t.Helper()
	s, err := New(Config{CloudSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	d, err := s.opt.Optimize(s.queries["All"])
	if err != nil {
		t.Fatal(err)
	}
	ops, err := s.opt.ExplainOperators(d)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizeResponse("All", "joint", s.opt.Planner(), d)
	sub, err := s.arb.SubmitWait("default", "Q3", scheduler.Reoptimize)
	if err != nil {
		t.Fatal(err)
	}
	csub, err := s.cld.arb.SubmitWait("default", "Q2", cloud.RecoverReoptimize)
	if err != nil {
		t.Fatal(err)
	}
	var nilPtr *int
	return []any{
		opt,
		&opt,
		ExplainResponse{OptimizeResponse: opt, Operators: NewExplainOperators(ops), PlanTree: d.Plan.String()},
		BatchResponse{Results: []OptimizeResponse{opt, opt}, Memo: &MemoStats{Hits: 1, Misses: 2, Entries: 3}},
		BatchResponse{},
		BatchResponse{Results: []OptimizeResponse{}},
		OptimizeResponse{},
		NewModelResponse(s.rec),
		NewSubmitResponse(sub),
		NewCloudSubmitResponse(csub),
		s.arb.Stats(),
		s.cld.arb.Stats(),
		FeedbackResponse{Accepted: 8, Stored: 64, Total: 1 << 40, Drifted: true},
		HistoryResponse{Series: awkward, Buckets: []HistoryBucket{{Start: 60, Count: 3, Sum: 1e-7, Min: -2.5e-9, Max: 1e21, Mean: 123456789.125, P50: 0.1, P90: 1e20, P99: 5e-324}}},
		HistorySeriesResponse{Series: []string{}},
		ErrorResponse{Error: awkward},
		ErrorResponse{},
		map[string]any{
			awkward:     awkward,
			"":          nil,
			"emptyList": []int{},
			"emptyMap":  map[string]int{},
			"nilList":   []int(nil),
			"nilMap":    map[string]int(nil),
			"nilPtr":    nilPtr,
			"floats":    []float64{1e-6, 9.99e-7, 1e-7, 5e-324, -0.0, 1e20, 1e21, 1.5e21, math.MaxFloat64, -1e-300},
			"nested":    []any{[]any{}, map[string]any{}, []any{[]any{map[string]any{"a": []any{[]any{}}}}}},
			"bytes":     []byte(awkward),
			"raw":       json.RawMessage(" { \"a\" : [ 1 , 2 , { } , [ ] ] , \"b\\\"\" : \"x y\" } "),
		},
		[]any{},
		map[string]any{},
		nil,
		nilPtr,
		awkward,
		"",
		42,
		1e21,
		true,
		[]any{nil, false, 0, "", []any{}, map[string]any{}},
	}
}

func TestWriteJSONMatchesEncoder(t *testing.T) {
	for _, v := range wireValues(t) {
		checkWriteJSON(t, v)
	}
}

// parentArbiterStats is the body GET /v1/arbiter/stats encoded before the
// handler encoded its stats type directly: a wire struct of its own, filled
// field by field. TestArbiterStatsBodyMatchesParent holds the body to it.
type parentArbiterStats struct {
	NowSeconds     float64 `json:"nowSeconds"`
	Completed      int     `json:"completed"`
	InFlight       int     `json:"inFlight"`
	Queued         int     `json:"queued"`
	Rejected       int64   `json:"rejected"`
	Failed         int64   `json:"failed"`
	AdmittedWait   int64   `json:"admittedWait"`
	AdmittedDeg    int64   `json:"admittedDegrade"`
	AdmittedReopt  int64   `json:"admittedReoptimize"`
	Replanned      int64   `json:"replanned"`
	Degraded       int64   `json:"degraded"`
	DegradeStalls  int64   `json:"degradeStalls"`
	Recals         int64   `json:"recalibrations"`
	FreeContainers int     `json:"freeContainers"`
	HeldGB         float64 `json:"heldGB"`
	ReoptFull      int64   `json:"reoptFull"`
	ReoptExact     int64   `json:"reoptExact"`
}

func newParentArbiterStats(st ArbiterStats) parentArbiterStats {
	return parentArbiterStats{
		NowSeconds:     st.Now,
		Completed:      st.Completed,
		InFlight:       st.InFlight,
		Queued:         st.Queued,
		Rejected:       st.Rejected,
		Failed:         st.Failed,
		AdmittedWait:   st.AdmittedWait,
		AdmittedDeg:    st.AdmittedDeg,
		AdmittedReopt:  st.AdmittedReopt,
		Replanned:      st.Replanned,
		Degraded:       st.Degraded,
		DegradeStalls:  st.DegradeStalls,
		Recals:         st.Recals,
		FreeContainers: st.FreeContainers,
		HeldGB:         st.HeldGB,
		ReoptFull:      st.ReoptFull,
		ReoptExact:     st.ReoptExact,
	}
}

// TestArbiterStatsBodyMatchesParent: GET /v1/arbiter/stats, with and
// without drain=1, answers the bytes the parent's wire struct encoded from
// the same snapshot, and so does WriteJSON for random snapshots, a
// non-zero ReoptPatched (never on the wire) included.
func TestArbiterStatsBodyMatchesParent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, q := range []string{"Q12", "Q3", "All"} {
		resp := postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Query: q})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: HTTP %d", q, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/arbiter/stats", "/v1/arbiter/stats?drain=1", "/v1/arbiter/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d (%v)", path, resp.StatusCode, err)
		}
		// The handler drains before it reads, so the snapshot after it is
		// the one it encoded.
		var want bytes.Buffer
		if err := parentWriteJSON(&want, newParentArbiterStats(s.Arbiter().Stats())); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("GET %s:\n%s\nparent body:\n%s", path, got, want.Bytes())
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		st := ArbiterStats{
			Now: rng.ExpFloat64() * 1e4, Completed: rng.Intn(1000), InFlight: rng.Intn(50), Queued: rng.Intn(50),
			Rejected: rng.Int63(), Failed: rng.Int63n(9), AdmittedWait: rng.Int63(), AdmittedDeg: rng.Int63(),
			AdmittedReopt: rng.Int63(), Replanned: rng.Int63(), Degraded: rng.Int63(), DegradeStalls: rng.Int63(),
			Recals: rng.Int63n(100), FreeContainers: rng.Intn(101), HeldGB: rng.NormFloat64() * 1e3,
			ReoptFull: rng.Int63(), ReoptExact: rng.Int63(), ReoptPatched: rng.Int63(),
		}
		var got, want bytes.Buffer
		if err := WriteJSON(&got, st); err != nil {
			t.Fatal(err)
		}
		if err := parentWriteJSON(&want, newParentArbiterStats(st)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%+v:\n%s\nparent body:\n%s", st, got.Bytes(), want.Bytes())
		}
	}
}

// TestWriteJSONErrorsWriteNothing: a value the encoder refuses returns the
// encoder's error and leaves w untouched, as the parent's did.
func TestWriteJSONErrorsWriteNothing(t *testing.T) {
	for _, v := range []any{
		math.NaN(),
		math.Inf(1),
		SubmitResponse{QueueRunRatio: math.Inf(-1)},
		map[string]any{"ok": 1, "bad": []float64{0, math.NaN()}},
		BatchResponse{Results: []OptimizeResponse{{}, {TimeSeconds: math.NaN()}}},
		map[string]any{"ch": make(chan int)},
	} {
		checkWriteJSON(t, v)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, v); err == nil || buf.Len() != 0 {
			t.Fatalf("%#v: err %v, wrote %q", v, err, buf.Bytes())
		}
	}
}

// TestWriteResultRefusesUnencodable: a response that does not encode is a
// 500 with an error body, never a 200 with an empty one.
func TestWriteResultRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteResult(rec, SubmitResponse{Tenant: "etl", QueueRunRatio: math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, body %q; want 500", rec.Code, rec.Body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("body %q (%v): want an ErrorResponse naming the unsupported value", rec.Body, err)
	}

	rec = httptest.NewRecorder()
	ok := SubmitResponse{Tenant: "etl", QueueRunRatio: 0.5}
	WriteResult(rec, ok)
	var want bytes.Buffer
	if err := parentWriteJSON(&want, ok); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("status %d, content type %q, body %q; want a 200 with %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body, want.Bytes())
	}
}

func FuzzWriteJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `null`, `"\u2028<>&"`, `1e21`, `-0.000001`, `[[[[]]]]`,
		`{"a":[1,{},[]],"b":"x\"y\\z","":{"":{"":null}}}`,
		`{"plan":{"algo":"SMJ","children":[{"rel":"lineitem"},{"rel":"orders"}]},"t":1e-7}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) == nil {
			checkWriteJSON(t, v)
		}
		// The raw bytes as a key and a string value: invalid UTF-8 and
		// control characters the JSON document above could not carry.
		checkWriteJSON(t, map[string]any{string(data): []any{string(data), map[string]any{}}})
	})
}
