package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"raqo/internal/catalog"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/plan"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatalf("encode request: %v", err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBodyInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// wireOptimize mirrors OptimizeResponse with the plan kept raw, since
// plan.Node only decodes against a schema via plan.Decode.
type wireOptimize struct {
	Query              string          `json:"query"`
	Mode               string          `json:"mode"`
	Planner            string          `json:"planner"`
	TimeSeconds        float64         `json:"timeSeconds"`
	MoneyDollars       float64         `json:"moneyDollars"`
	PlansConsidered    int             `json:"plansConsidered"`
	ResourceIterations int64           `json:"resourceIterations"`
	Plan               json.RawMessage `json:"plan"`
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	decodeBodyInto(t, resp, &body)
	if body.Status != "ok" {
		t.Fatalf("healthz status field = %q, want ok", body.Status)
	}
}

func TestOptimizeAllModes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  OptimizeRequest
	}{
		{"joint", OptimizeRequest{Query: "Q12"}},
		{"fixed", OptimizeRequest{Query: "Q12", Mode: "fixed", Containers: 8, ContainerGB: 8}},
		{"budget", OptimizeRequest{Query: "Q3", Mode: "budget", Containers: 10, ContainerGB: 4}},
		{"price", OptimizeRequest{Query: "Q12", Mode: "price", BudgetDollars: 1e9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/optimize", tc.req)
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status = %d, body %s", resp.StatusCode, b)
			}
			var out wireOptimize
			decodeBodyInto(t, resp, &out)
			if out.Query != "Q12" && out.Query != "Q3" {
				t.Errorf("query = %q", out.Query)
			}
			if out.TimeSeconds <= 0 {
				t.Errorf("timeSeconds = %g, want > 0", out.TimeSeconds)
			}
			if out.MoneyDollars <= 0 {
				t.Errorf("moneyDollars = %g, want > 0", out.MoneyDollars)
			}
			if len(out.Plan) == 0 || string(out.Plan) == "null" {
				t.Errorf("missing plan in response")
			}
			if out.Planner == "" {
				t.Errorf("missing planner name")
			}
		})
	}
}

func TestOptimizeByRelations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Relations: []string{"lineitem", "orders"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out wireOptimize
	decodeBodyInto(t, resp, &out)
	if out.Query != "lineitem,orders" {
		t.Fatalf("query = %q, want lineitem,orders", out.Query)
	}
}

// TestOptimizePlanRoundTrips decodes the served plan against the same
// schema and re-encodes it: the JSON must be byte-identical, proving the
// wire form is lossless (shape, algorithms, resource annotations).
func TestOptimizePlanRoundTrips(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Query: "Q3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out wireOptimize
	decodeBodyInto(t, resp, &out)
	node, err := plan.Decode(catalog.TPCH(100), out.Plan)
	if err != nil {
		t.Fatalf("plan.Decode: %v", err)
	}
	reencoded, err := json.Marshal(node)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, out.Plan); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if compact.String() != string(reencoded) {
		t.Fatalf("plan JSON did not round-trip:\n got %s\nwant %s", reencoded, compact.String())
	}
	if node.Res.IsZero() {
		t.Fatalf("decoded root join lost its resource annotation")
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"invalid json", `{"query": `, http.StatusBadRequest},
		{"unknown field", `{"query":"Q12","frobnicate":1}`, http.StatusBadRequest},
		{"missing query", `{}`, http.StatusBadRequest},
		{"query and relations", `{"query":"Q12","relations":["orders"]}`, http.StatusBadRequest},
		{"unknown mode", `{"query":"Q12","mode":"psychic"}`, http.StatusBadRequest},
		{"unknown query name", `{"query":"Q99"}`, http.StatusBadRequest},
		{"disconnected relations", `{"relations":["part","customer"]}`, http.StatusBadRequest},
		{"zero price budget", `{"query":"Q12","mode":"price"}`, http.StatusUnprocessableEntity},
		{"fixed outside conditions", `{"query":"Q12","mode":"fixed","containers":5000,"containerGB":8}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(tc.body)
			if resp.StatusCode != tc.want {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, b)
			}
			var e ErrorResponse
			decodeBodyInto(t, resp, &e)
			if e.Error == "" {
				t.Fatalf("error body missing error field")
			}
		})
	}

	t.Run("batch missing queries", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("explain unknown query", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/explain/Q99")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
}

// TestFixedErrorShort: a fixed configuration far outside the cluster is a
// 422 that names the requested size in %g form, not as a 301-digit number.
func TestFixedErrorShort(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"query":"Q12","mode":"fixed","containers":10,"containerGB":1e300}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "1e+300") || len(body) >= 256 {
		t.Fatalf("HTTP %d, %d bytes: %s", resp.StatusCode, len(body), body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/explain/Q12")
	if err != nil {
		t.Fatalf("GET /v1/explain/Q12: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		wireOptimize
		Operators []ExplainOperator `json:"operators"`
		PlanTree  string            `json:"planTree"`
	}
	decodeBodyInto(t, resp, &out)
	if len(out.Operators) == 0 {
		t.Fatalf("no operators in explanation")
	}
	for _, op := range out.Operators {
		if op.Algo != "SMJ" && op.Algo != "BHJ" {
			t.Errorf("operator algo = %q", op.Algo)
		}
		if op.Containers <= 0 || op.ContainerGB <= 0 {
			t.Errorf("operator missing resources: %+v", op)
		}
		if op.ModeledSeconds <= 0 {
			t.Errorf("operator missing modeled time: %+v", op)
		}
	}
	if out.PlanTree == "" {
		t.Fatalf("missing plan tree")
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Queries: []string{"Q12", "Q3", "Q12"}})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var out struct {
		Results []wireOptimize  `json:"results"`
		Cache   json.RawMessage `json:"cache"`
		Memo    *MemoStats      `json:"memo"`
	}
	decodeBodyInto(t, resp, &out)
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	for i, want := range []string{"Q12", "Q3", "Q12"} {
		if out.Results[i].Query != want {
			t.Errorf("results[%d].query = %q, want %q", i, out.Results[i].Query, want)
		}
	}
	if out.Results[0].TimeSeconds != out.Results[2].TimeSeconds {
		t.Errorf("same query planned to different costs: %g vs %g",
			out.Results[0].TimeSeconds, out.Results[2].TimeSeconds)
	}
	if out.Cache != nil {
		t.Errorf("the service plans without a resource-plan cache, yet the batch reports %s", out.Cache)
	}
	if out.Memo == nil {
		t.Fatalf("missing memo stats")
	}
	if out.Memo.Hits == 0 {
		t.Errorf("repeated query produced no memo hits: %+v", out.Memo)
	}
}

// gatedModel blocks every cost evaluation until release is closed,
// signalling the first arrival on started. It lets overload tests hold the
// admission slot deterministically.
type gatedModel struct {
	cost.Model
	started chan struct{}
	release chan struct{}
	once    *sync.Once
}

func (g gatedModel) Cost(ss, cs, nc float64) float64 {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return g.Model.Cost(ss, cs, nc)
}

// gatedModels wraps every paper model in one shared gate.
func gatedModels(started, release chan struct{}) *cost.Models {
	once := new(sync.Once)
	out := cost.NewModels()
	for _, a := range plan.Algos {
		m, _ := cost.PaperModels().For(a)
		out.Set(a, gatedModel{Model: m, started: started, release: release, once: once})
	}
	return out
}

// TestOverloadSheds saturates a 1-slot, 1-queue server and checks the
// admission behavior end to end: the queued request waits, excess
// requests get immediate 429 + Retry-After, and once the slot frees both
// admitted requests complete. The server never deadlocks.
func TestOverloadSheds(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	_, ts := newTestServer(t, Config{
		Options:      core.Options{Models: gatedModels(started, release)},
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 10 * time.Second,
	})

	type result struct {
		code int
		err  error
	}
	do := func(ch chan<- result) {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
			strings.NewReader(`{"query":"Q12"}`))
		if err != nil {
			ch <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ch <- result{code: resp.StatusCode}
	}

	first := make(chan result, 1)
	go do(first)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the planner")
	}

	second := make(chan result, 1)
	go do(second)
	waitQueued(t, ts.URL, 1)

	// Queue is now full: further requests must shed immediately.
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
			strings.NewReader(`{"query":"Q12"}`))
		if err != nil {
			t.Fatalf("overflow request %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow request %d: status = %d, want 429", i, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("429 Retry-After = %q, want 1", got)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	close(release)
	for name, ch := range map[string]chan result{"first": first, "second": second} {
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("%s request failed: %v", name, r.err)
			}
			if r.code != http.StatusOK {
				t.Fatalf("%s request status = %d, want 200", name, r.code)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s request never completed: server deadlocked", name)
		}
	}
}

// waitQueued polls /metrics until raqo_http_queued reaches want.
func waitQueued(t *testing.T, baseURL string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := scrapeMetric(t, baseURL, "raqo_http_queued"); ok && v >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("queue depth never reached %g", want)
}

// scrapeMetric fetches /metrics and returns the first sample of the named
// family (label-less families only).
func scrapeMetric(t *testing.T, baseURL, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
			t.Fatalf("parse metric line %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

// TestClientCancellationStopsPlanning issues a request whose context is
// already cancelled: the planner search must observe it (verified by the
// wrapped context error) and the server must answer 499 and count the
// cancellation.
func TestClientCancellationStopsPlanning(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize",
		strings.NewReader(`{"query":"All"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body %s)", rec.Code, statusClientClosedRequest, rec.Body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if !strings.Contains(e.Error, "cancelled") && !strings.Contains(e.Error, "canceled") {
		t.Fatalf("error = %q, want a cancellation error", e.Error)
	}
	if got := s.Metrics().Cancelled.Value(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// TestConcurrentOptimizeSharedCache is the race-detector target: 16
// goroutines hammer /v1/optimize through the served configuration — the
// response memo in front of the shared cost memo — every answer to one
// query carries the same modelled time and plan whatever the interleaving,
// and afterwards /metrics must report memo hits: the repeats were answered
// without planning from scratch.
func TestConcurrentOptimizeSharedCache(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxInFlight:  16,
		MaxQueue:     64,
		QueueTimeout: time.Minute,
	})
	queries := []string{"Q12", "Q3", "Q2"}
	const goroutines = 16
	const perGoroutine = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perGoroutine)
	var mu sync.Mutex
	answers := map[string]wireOptimize{} // guarded by mu
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				q := queries[(g+i)%len(queries)]
				resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
					strings.NewReader(`{"query":"`+q+`"}`))
				if err != nil {
					errs <- err
					continue
				}
				var out wireOptimize
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					errs <- fmt.Errorf("%s: status %d, decode %v", q, resp.StatusCode, err)
					continue
				}
				mu.Lock()
				if first, ok := answers[q]; !ok {
					answers[q] = out
				} else if first.TimeSeconds != out.TimeSeconds || string(first.Plan) != string(out.Plan) {
					errs <- fmt.Errorf("%s answered %gs and %gs under one model set", q, first.TimeSeconds, out.TimeSeconds)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, name := range []string{"raqo_optimize_memo_hits_total", "raqo_cost_memo_hits_total"} {
		hits, ok := scrapeMetric(t, ts.URL, name)
		if !ok {
			t.Fatalf("%s missing from /metrics", name)
		}
		if hits == 0 {
			t.Errorf("%s = 0 after a repeated-query workload", name)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ { // the repeat is a response-memo hit
		resp := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Query: "Q12"})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		`raqo_http_requests_total{endpoint="/v1/optimize"} 2`,
		"\nraqo_optimize_memo_hits_total 1\n",
		"\nraqo_optimize_memo_entries 1\n",
		`# TYPE raqo_http_request_seconds histogram`,
		`raqo_plans_considered_total`,
		`raqo_cost_memo_entries`,
		`raqo_uptime_seconds`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, "raqo_resource_cache_") {
		t.Errorf("/metrics exports resource-plan cache series, but the service plans without one")
	}
}

// TestRequestCounterLabelledByRoute: the per-endpoint request counter is
// labelled with the route, never the request path, so a path parameter
// (an explain's query name) cannot grow the series without bound.
func TestRequestCounterLabelledByRoute(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, q := range []string{"Q12", "Q3"} {
		resp, err := http.Get(ts.URL + "/v1/explain/" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/explain/%s: status %d", q, resp.StatusCode)
		}
	}
	if got := s.metrics.Requests.With("/v1/explain").Value(); got != 2 {
		t.Errorf(`raqo_http_requests_total{endpoint="/v1/explain"} = %d, want 2`, got)
	}
	var text strings.Builder
	if err := s.metrics.Registry.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "/v1/explain/Q") {
		t.Errorf("a series is labelled with an explain request's path:\n%s", text.String())
	}
}

// TestServeGracefulDrain starts the real listener on an ephemeral port,
// with the history gather loop running, confirms it serves, then cancels
// the context and checks Serve returns cleanly after draining: every
// background loop, the gather included, stops on cancellation.
func TestServeGracefulDrain(t *testing.T) {
	s, err := New(Config{HistoryDir: t.TempDir(), HistoryInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.Serve(ctx, "127.0.0.1:0", func(addr string) { addrc <- addr })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(10 * time.Second):
		t.Fatal("listener never came up")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz over real listener: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(10 * time.Second); s.History().Stats().CommittedTotal == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the gather loop never committed a point")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve never returned after cancellation")
	}
}

// TestStatusLabelBounded pins the raqolint metric fix: response codes map
// onto a closed label set, so responses_total cardinality stays bounded
// no matter what a handler writes.
func TestStatusLabelBounded(t *testing.T) {
	cases := map[int]string{
		200: "200", 400: "400", 404: "404", 405: "405", 422: "422",
		429: "429", 499: "499", 500: "500", 504: "504",
		201: "2xx", 302: "3xx", 418: "4xx", 503: "5xx",
	}
	for code, want := range cases {
		if got := statusLabel(code); got != want {
			t.Errorf("statusLabel(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestClientGoneCancels closes a real client socket while its
// /v1/optimize holds the only admission slot, planning behind gated
// models. The close must cancel the request's context, the planning must
// stop as a cancellation, and the slot must come back: the next request
// plans at once instead of queueing into a 429.
func TestClientGoneCancels(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s, err := New(Config{
		Options:         core.Options{Models: gatedModels(started, release)},
		MaxInFlight:     1,
		RecalInterval:   -1,
		HistoryInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make(chan context.Context, 4)
	front := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctxs <- r.Context()
		s.Handler().ServeHTTP(w, r)
	})
	ctx, cancel := context.WithCancel(context.Background())
	addrc, done := make(chan string, 1), make(chan error, 1)
	go func() { done <- s.ServeHandler(ctx, "127.0.0.1:0", front, func(a string) { addrc <- a }) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	defer open() // before the drain: a plan left gated would hold it
	addr := <-addrc

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"query":"All"}`
	if _, err := fmt.Fprintf(c, "POST /v1/optimize HTTP/1.1\r\nHost: raqo\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}
	var reqCtx context.Context
	select {
	case reqCtx = <-ctxs:
	case <-time.After(10 * time.Second):
		t.Fatal("the request never reached the handler")
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the request never reached the planner")
	}
	_ = c.Close()
	select {
	case <-reqCtx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("closing the socket never cancelled the request's context")
	}
	open()
	for deadline := time.Now().Add(10 * time.Second); s.Metrics().Cancelled.Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled counter = %d, want 1", s.Metrics().Cancelled.Value())
		}
	}
	resp, err := http.Post("http://"+addr+"/v1/optimize", "application/json", strings.NewReader(`{"query":"Q12"}`))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the next request: HTTP %d, want 200 (the slot did not come back)", resp.StatusCode)
	}
}
