package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"raqo/internal/plan"
	"raqo/internal/workload"
)

// FuzzOptimizeBodies sends arbitrary bytes to one server as a /v1/optimize
// body and as a /v1/batch body. No input panics the handlers, every answer
// is a status a client is told to expect, a 500 is only an encode failure,
// and every /v1/optimize 200 carries a plan for the query it asked for.
func FuzzOptimizeBodies(f *testing.F) {
	for _, seed := range []string{
		`{"query":"Q12"}`,
		`{"relations":["customer","nation","orders"]}`,
		`{"query":"Q3","mode":"fixed","containers":10,"containerGB":4}`,
		`{"query":"Q12","mode":"fixed","containers":10,"containerGB":1e300}`,
		`{"query":"Q2","mode":"budget","containers":-3,"containerGB":1e9}`,
		`{"query":"All","mode":"price","budgetDollars":0.5}`,
		`{"query":"Q12","mode":"price","budgetDollars":-1}`,
		`{"relations":["orders","orders"]}`,
		`{"queries":["Q12","Q3"],"parallel":-1}`,
		`{"queries":["Q2"],"parallel":1000000000}`,
		`{"queries":[]}`,
		`{"query":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/optimize", "/v1/batch"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity,
				http.StatusTooManyRequests, statusClientClosedRequest, http.StatusGatewayTimeout:
			case http.StatusInternalServerError:
				var e ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.HasPrefix(e.Error, "json: unsupported value") {
					t.Fatalf("%s %q: 500 that is not an encode failure: %s", path, body, rec.Body)
				}
			default:
				t.Fatalf("%s %q: HTTP %d: %s", path, body, rec.Code, rec.Body)
			}
			if path == "/v1/optimize" && rec.Code == http.StatusOK {
				checkOptimizeAnswer(t, s, body, rec.Body.Bytes())
			}
		}
	})
}

// checkOptimizeAnswer fails unless resp, a 200 to the /v1/optimize body,
// carries a plan that decodes and is valid for the query body names,
// resolved here without the server's resolver.
func checkOptimizeAnswer(t *testing.T, s *Server, body, resp []byte) {
	t.Helper()
	var req OptimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("%q answered 200 but does not decode: %v", body, err)
	}
	var q *plan.Query
	var err error
	if req.Query != "" {
		q, err = workload.TPCHQuery(s.sch, req.Query)
	} else {
		q, err = plan.NewQuery(s.sch, req.Relations...)
	}
	if err != nil {
		t.Fatalf("%q answered 200 but names no query: %v", body, err)
	}
	var got wireOptimize
	if err := json.Unmarshal(resp, &got); err != nil {
		t.Fatalf("%q: answer does not decode: %v", body, err)
	}
	p, err := plan.Decode(s.sch, got.Plan)
	if err != nil {
		t.Fatalf("%q: plan does not decode: %v", body, err)
	}
	if err := p.Validate(q); err != nil {
		t.Fatalf("%q: %s: %v", body, p, err)
	}
}
