// Package server turns the RAQO library into the long-running optimizer
// service the paper's Figure 8 architecture describes: a component inside
// a shared big-data system that answers joint (plan, resource) requests
// continuously. A process-wide operator-cost memo reuses every costing
// across requests, and in front of it a response memo answers an exact
// repeat of an optimize request with the bytes that answered it before
// (memo.go); both are exact, so a served answer is the one a fresh
// optimizer gives in any request order. Admission control bounds
// in-flight planning work (bounded slots + FIFO wait queue + 429 on
// overload, the serving restatement of internal/scheduler's policies);
// request contexts are threaded into the planner search loops so
// abandoned requests stop burning CPU. Every listener speaks HTTP/1.1
// through the package's own connection loop (conn.go, ServeConns): one
// goroutine per connection, request and response state reused across a
// connection's requests, each answer written whole in one write, and a
// client that hangs up mid-plan cancelling its request.
//
// Endpoints:
//
//	POST /v1/optimize         one query, modes joint|fixed|budget|price
//	POST /v1/batch            up to 64 queries, planned in order in one slot
//	GET  /v1/explain/{query}  plan tree + resources + cost breakdown
//	POST /v1/feedback         execution observations into the feedback store
//	GET  /v1/model            live cost-model version + drift/error stats
//	POST /v1/submit           one workload query through the shared-cluster arbiter
//	GET  /v1/arbiter/stats    arbiter state; ?drain=1 drains the virtual cluster
//	POST /v1/cloud/submit     one query through the elastic priced cloud pool
//	GET  /v1/cloud/stats      cloud market state; ?drain=1 drains the pool
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text exposition (internal/telemetry)
//
// The server also closes the execution-feedback loop (internal/feedback):
// observations posted to /v1/feedback accumulate in a bounded store
// (optionally journaled to JSONL), a background goroutine watches the
// drift detector, and on drift the cost models are retrained and swapped
// atomically — subsequent optimize calls plan under the recalibrated,
// versioned model set.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"raqo/internal/arbiter"
	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/plan"
	"raqo/internal/telemetry"
	"raqo/internal/workload"
)

// statusClientClosedRequest is nginx's convention for "client went away
// before the response"; the body is never seen, but the access log and
// the response-code metric are.
const statusClientClosedRequest = 499

// Config configures a Server. Zero values select serving defaults. The
// server plans against cluster.Default() with a hill climb behind a shared
// operator-cost memo; an exact repeat of an optimize request is answered
// from the response memo.
type Config struct {
	// SF is the TPC-H scale factor of the served schema; 0 selects 100
	// (the paper's evaluation scale).
	SF float64
	// Options configures the shared optimizer, which New builds through
	// NewOptimizer: only the planner, the models (nil trains the served
	// set), the randomized planner's tuning and the seed are the caller's;
	// the resource planner, the cost memo and the engine are fixed there.
	Options core.Options

	// MaxInFlight bounds concurrently planning requests; 0 selects
	// max(2, NumCPU).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue; 0 selects 64.
	MaxQueue int
	// QueueTimeout is the per-request admission deadline; 0 selects 2s.
	QueueTimeout time.Duration
	// RequestTimeout bounds one request's planning time; 0 selects 30s.
	RequestTimeout time.Duration

	// JournalPath, when set, opens (or appends to) a JSONL feedback
	// journal so accumulated observations survive restarts.
	JournalPath string
	// JournalMaxBytes rotates the feedback journal once the active file
	// would exceed this size; 0 disables rotation (one unbounded file).
	JournalMaxBytes int64
	// JournalMaxFiles bounds how many rotated journal files are kept
	// (oldest pruned first); 0 keeps all rotations.
	JournalMaxFiles int
	// FeedbackCapacity bounds the in-memory feedback ring; 0 selects
	// feedback.DefaultStoreCapacity.
	FeedbackCapacity int
	// Drift tunes the drift detector (zero fields select its defaults).
	Drift feedback.DriftConfig
	// RecalInterval is how often the background loop checks for drift and
	// recalibrates; 0 selects 30s, negative disables the loop (feedback
	// still accumulates and /v1/model still reports drift).
	RecalInterval time.Duration

	// HistoryDir, when set, opens an embedded time-series history store
	// there (internal/history): every telemetry series is gathered into it
	// on the HistoryInterval ticker, the drift detector streams its
	// per-class error series in, and GET /v1/history serves time-range
	// queries. The server itself never reads the series back: long-horizon
	// drift detection over them (feedback.LongHorizon) runs only in `raqo
	// figure history`. Empty disables history entirely.
	HistoryDir string
	// HistoryRetention is the store's raw-segment retention in seconds;
	// 0 selects the store default (rollups retain far longer).
	HistoryRetention int64
	// HistoryInterval is the telemetry gather period; 0 selects 10s,
	// negative disables the gather loop (detector series still stream in
	// and are committed with each feedback batch).
	HistoryInterval time.Duration

	// ArbiterCapacity is the container count of the simulated shared pool
	// behind POST /v1/submit; 0 selects 100 (the paper's cluster scale).
	ArbiterCapacity int
	// ArbiterTenants configures the workload arbiter's tenants; nil
	// selects a single "default" tenant.
	ArbiterTenants []arbiter.TenantConfig

	// CloudOnDemand and CloudSpot size the two-tier priced market behind
	// POST /v1/cloud/submit; 0 selects 12 on-demand and 24 spot 10GB
	// containers (CloudSpot < 0 omits the spot class). Spot costs 30% of
	// the on-demand rate.
	CloudOnDemand int
	CloudSpot     int
	// CloudSeed seeds the cloud pool's spot-interruption process; 0 runs
	// the pool fault-free.
	CloudSeed int64
	// CloudAutoscale puts the spot class under the autoscaler, elastic
	// between a quarter and double CloudSpot.
	CloudAutoscale bool
	// CloudTenants configures the cloud arbiter's tenants; nil selects a
	// single "default" tenant.
	CloudTenants []cloud.TenantConfig
}

// Serving constants: the spot discount off the on-demand rate and the
// graceful-drain bound.
const (
	cloudSpotDiscount = 0.7
	drainTimeout      = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.SF == 0 {
		c.SF = 100
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = max(2, runtime.NumCPU())
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RecalInterval == 0 {
		c.RecalInterval = 30 * time.Second
	}
	if c.HistoryInterval == 0 {
		c.HistoryInterval = 10 * time.Second
	}
	if c.ArbiterCapacity == 0 {
		c.ArbiterCapacity = 100
	}
	if len(c.ArbiterTenants) == 0 {
		c.ArbiterTenants = defaultTenants()
	}
	if c.CloudOnDemand == 0 {
		c.CloudOnDemand = 12
	}
	if c.CloudSpot == 0 {
		c.CloudSpot = 24
	}
	if len(c.CloudTenants) == 0 {
		c.CloudTenants = defaultTenants()
	}
	return c
}

// Server is the RAQO optimizer service.
type Server struct {
	cfg     Config
	sch     *catalog.Schema
	opt     *core.Optimizer
	queries map[string]*plan.Query // the named TPC-H queries, built once
	memo    *responseMemo          // exact-hit tier of /v1/optimize
	metrics *Metrics
	admit   *admission
	mux     *http.ServeMux
	routes  map[string]http.HandlerFunc // mux pattern → the handler it dispatches to
	start   time.Time
	rec     *feedback.Recalibrator
	journal *feedback.Journal // nil unless Config.JournalPath was set
	hist    *history.Store    // nil unless Config.HistoryDir was set
	arb     *sim[*arbiter.Arbiter]
	cld     *sim[*cloud.Arbiter]
}

// NewOptimizer builds the serving optimizer from opts: the paper's
// evaluation cluster (cluster.Default), planned with core.New's bare hill
// climb behind the operator-cost memo, and memory-aware for cloud.Engine(),
// the engine the arbiters execute on. opts.Resource, opts.MemoizeCosts and
// opts.Engine are overridden, so no configuration reintroduces the
// resource-plan cache: both reuse tiers are exact, and a served answer is
// the fresh plan under the same models in any request order. Nil
// opts.Models selects the set trained on cloud.Engine()
// (workload.TrainedModels), the one `raqo serve` plans on. New and every
// planning command of cmd/raqo build their optimizer here.
func NewOptimizer(opts core.Options) (*core.Optimizer, error) {
	engine := cloud.Engine()
	opts.Resource, opts.MemoizeCosts, opts.Engine = nil, true, &engine
	if opts.Models == nil {
		models, err := workload.TrainedModels(engine)
		if err != nil {
			return nil, err
		}
		opts.Models = models
	}
	return core.New(cluster.Default(), opts)
}

// New builds a Server: schema, shared warm optimizer, metric registry and
// routes. The returned server is ready to serve via Handler or Serve. A
// failing New closes the journal and history store it opened.
func New(cfg Config) (_ *Server, err error) {
	cfg = cfg.withDefaults()
	opt, err := NewOptimizer(cfg.Options)
	if err != nil {
		return nil, err
	}

	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	m.AttachMemo(opt.Memo())

	var journal *feedback.Journal
	var hist *history.Store
	defer func() {
		if err == nil {
			return
		}
		if journal != nil {
			_ = journal.Close()
		}
		if hist != nil {
			_ = hist.Close()
		}
	}()
	if cfg.JournalPath != "" {
		journal, err = feedback.OpenJournalConfig(cfg.JournalPath, feedback.JournalConfig{
			MaxBytes: cfg.JournalMaxBytes,
			MaxFiles: cfg.JournalMaxFiles,
		})
		if err != nil {
			return nil, err
		}
	}
	rec := feedback.NewRecalibrator(
		feedback.NewStore(cfg.FeedbackCapacity, journal),
		feedback.NewDetector(cfg.Drift),
		opt.Models(),
	)
	// On every swap the optimizer starts planning under the new versioned
	// set (SetModels also resets the cost memo), and the recalibration's
	// wall time lands in the duration histogram.
	rec.OnSwap(func(r feedback.Recalibration, info *feedback.ModelInfo) {
		_ = opt.SetModels(info.Models)
		m.RecalDuration.Observe(r.Duration.Seconds())
	})
	m.AttachFeedback(rec, journal)

	// The history store (when configured) receives every error sample the
	// detector sees and every gathered telemetry series.
	if cfg.HistoryDir != "" {
		hist, err = history.Open(cfg.HistoryDir, history.Config{RawRetention: cfg.HistoryRetention})
		if err != nil {
			return nil, err
		}
		rec.Detector().SetRecorder(hist)
		m.AttachHistory(hist)
	}

	sch := catalog.TPCH(cfg.SF)
	queries, err := workload.TPCHQueries(sch)
	if err != nil {
		return nil, err
	}
	// The shared cluster and the priced market plan on the serving
	// optimizer. Each passes its admission-time conditions per call through
	// its own core.Incremental, and the cost memo is keyed by them.
	shared := cloud.Workload{
		Base:      opt.Conditions(),
		Optimizer: opt,
		Queries:   queries,
	}
	shared.Tenants = cfg.ArbiterTenants
	arb, err := arbiter.New(arbiter.Config{
		Workload: shared,
		Capacity: cfg.ArbiterCapacity,
		Feedback: arbiterObserver(rec),
		Metrics:  arbiter.NewMetrics(reg),
	})
	if err != nil {
		return nil, err
	}

	shared.Tenants = cfg.CloudTenants
	cld, err := cloud.New(cloud.Config{
		Workload:   shared,
		Market:     cloudMarket(cfg),
		Faults:     cloudFaults(cfg),
		Autoscaler: cloud.AutoscalerConfig{Enabled: cfg.CloudAutoscale},
		Metrics:    cloud.NewMetrics(reg),
	})
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:     cfg,
		sch:     sch,
		opt:     opt,
		queries: queries,
		memo:    newResponseMemo(opt, m.MemoHits),
		metrics: m,
		admit:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout, m.Queued),
		start:   time.Now(),
		rec:     rec,
		journal: journal,
		hist:    hist,
		arb:     &sim[*arbiter.Arbiter]{arb: arb},
		cld:     &sim[*cloud.Arbiter]{arb: cld},
	}
	reg.GaugeFunc("raqo_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("raqo_optimize_memo_entries", "Encoded /v1/optimize answers held for exact-repeat requests under the live cost models.",
		func() float64 { return float64(s.memo.len()) })

	mux := http.NewServeMux()
	s.routes = make(map[string]http.HandlerFunc)
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		s.routes[pattern] = s.instrument(endpoint, h)
		mux.HandleFunc(pattern, s.routes[pattern])
	}
	route("POST /v1/optimize", "/v1/optimize", s.handleOptimize)
	route("POST /v1/batch", "/v1/batch", s.handleBatch)
	route("GET /v1/explain/{query}", "/v1/explain", s.handleExplain)
	route("POST /v1/feedback", "/v1/feedback", s.handleFeedback)
	route("POST /v1/submit", "/v1/submit", s.handleSubmit)
	route("GET /v1/arbiter/stats", "/v1/arbiter/stats", s.handleArbiterStats)
	route("POST /v1/cloud/submit", "/v1/cloud/submit", s.handleCloudSubmit)
	route("GET /v1/cloud/stats", "/v1/cloud/stats", s.handleCloudStats)
	route("GET /v1/history", "/v1/history", s.handleHistory)
	route("GET /v1/model", "/v1/model", s.handleModel)
	route("GET /healthz", "/healthz", s.handleHealthz)
	route("GET /metrics", "/metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Metrics returns the server's metric set (primarily for tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Recalibrator returns the server's feedback recalibrator.
func (s *Server) Recalibrator() *feedback.Recalibrator { return s.rec }

// Close releases resources the server owns outside Serve — the feedback
// journal and the history store (committing any staged points). Serve
// closes them on return; call Close directly when using the server via
// Handler only.
func (s *Server) Close() error {
	var err error
	if s.journal != nil {
		err = s.journal.Close()
	}
	if s.hist != nil {
		if cerr := s.hist.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// History returns the server's history store, or nil when Config.
// HistoryDir was unset (primarily for tests).
func (s *Server) History() *history.Store { return s.hist }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Route returns the instrumented handler the server's mux dispatches
// pattern to (as registered, e.g. "POST /v1/submit"), or nil. A front
// handler that has matched the same pattern itself, as a fleet node's
// routing does, hands the request over without a second match.
func (s *Server) Route(pattern string) http.HandlerFunc { return s.routes[pattern] }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Serve listens on addr and serves until ctx is cancelled (SIGTERM in
// cmd/raqo), then drains gracefully: the listener closes, in-flight
// requests get up to drainTimeout to finish, and Serve returns nil on a
// clean drain. ready, when non-nil, is called with the bound address once
// the listener is up — the hook ephemeral-port callers (the ready line
// of `raqo serve`, tests) need.
func (s *Server) Serve(ctx context.Context, addr string, ready func(addr string)) error {
	return s.ServeHandler(ctx, addr, nil, ready)
}

// ServeHandler is Serve with the front handler swapped out: handler (nil
// selects the server's own mux) receives every request while the server
// still owns the listener lifecycle and its background loops
// (recalibration, telemetry gather, graceful drain). This is how the
// fleet layer interposes its routing mux in front of a node's local
// handlers without duplicating the serve loop.
func (s *Server) ServeHandler(ctx context.Context, addr string, handler http.Handler, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	return s.ServeListener(ctx, ln, handler)
}

// ServeListener is ServeHandler on a listener the caller has bound, as a
// test fleet binds every member's port before building any: it serves ln
// through ServeConns, runs the background loops beside it, and closes the
// server when the drain is done.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener, handler http.Handler) error {
	if handler == nil {
		handler = s.mux
	}
	// Background recalibration: drift-gated, stopped (and waited for)
	// before Serve returns so shutdown never leaks the goroutine.
	loopCtx, stopLoop := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	if s.cfg.RecalInterval > 0 {
		go func() {
			defer close(loopDone)
			_ = s.rec.Loop(loopCtx, s.cfg.RecalInterval)
		}()
	} else {
		close(loopDone)
	}
	// Telemetry gather: every HistoryInterval the metric registry is
	// sampled into the history store and committed as one durable block.
	gatherDone := make(chan struct{})
	if s.hist != nil && s.cfg.HistoryInterval > 0 {
		go func() {
			defer close(gatherDone)
			t := time.NewTicker(s.cfg.HistoryInterval)
			defer t.Stop()
			for {
				select {
				case <-loopCtx.Done():
					return
				case <-t.C:
					_ = s.gatherHistory(time.Now().Unix())
				}
			}
		}()
	} else {
		close(gatherDone)
	}
	defer func() {
		stopLoop()
		<-loopDone
		<-gatherDone
		_ = s.Close()
	}()
	return ServeConns(ctx, ln, handler)
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint request counter,
// latency histogram and response-code counter.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.With(endpoint).Inc()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		s.metrics.Latency.With(endpoint).Observe(time.Since(start).Seconds())
		s.metrics.Responses.With(statusLabel(rec.code)).Inc()
	}
}

// statusLabel maps a response code onto the closed set of labels the
// server can emit, keeping the responses_total series bounded even if a
// handler ever writes an unexpected code.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusUnprocessableEntity:
		return "422"
	case http.StatusTooManyRequests:
		return "429"
	case 499: // client cancelled (nginx convention)
		return "499"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusGatewayTimeout:
		return "504"
	}
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// WriteError renders the uniform JSON error body.
func WriteError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = WriteJSON(w, ErrorResponse{Error: err.Error()})
}

// WriteResult renders v as a 200 JSON body through WriteJSON's encoder.
// Encoding finishes before anything is written, so a value that does not
// encode (a non-finite float) is answered with a 500 ErrorResponse rather
// than an empty 200.
func WriteResult(w http.ResponseWriter, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	writeEncoded(w, b.out)
	b.release()
}

// writeEncoded sends an already encoded 200 JSON body.
func writeEncoded(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// MaxBodyBytes bounds request bodies, the fleet's routed ones included;
// optimizer requests are tiny.
const MaxBodyBytes = 1 << 20

// decodeBody strictly decodes a JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
}

// decodeStrict decodes exactly one JSON value with no unknown fields and
// nothing but whitespace after it.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: trailing data after the JSON value")
	}
	return nil
}

// resolveQuery turns a request's query name or relation list into a
// validated logical query.
func (s *Server) resolveQuery(name string, relations []string) (*plan.Query, string, error) {
	switch {
	case name != "" && len(relations) > 0:
		return nil, "", errors.New("specify query or relations, not both")
	case name != "":
		if q, ok := s.queries[name]; ok {
			return q, name, nil
		}
		_, err := workload.TPCHQuery(s.sch, name) // the unknown-name error
		return nil, "", err
	case len(relations) > 0:
		q, err := plan.NewQuery(s.sch, relations...)
		if err != nil {
			return nil, "", err
		}
		return q, strings.Join(q.Rels, ","), nil
	default:
		return nil, "", errors.New("missing query")
	}
}

// admitted runs fn while holding an admission slot, translating admission
// failures into HTTP codes: 429 + Retry-After on overload, 499 when the
// client went away while queued.
func (s *Server) admitted(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context)) {
	ctx := r.Context()
	if err := s.admit.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			s.shed(w, err)
		default: // client cancelled while queued
			s.metrics.Cancelled.Inc()
			WriteError(w, statusClientClosedRequest, err)
		}
		return
	}
	defer s.admit.release()
	s.metrics.InFlight.Inc()
	defer s.metrics.InFlight.Dec()
	reqCtx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	fn(reqCtx)
}

// retryAfterSeconds is the Retry-After every 429 advertises.
const retryAfterSeconds = "1"

// shed answers a request refused for load: 429 with Retry-After.
func (s *Server) shed(w http.ResponseWriter, err error) {
	s.metrics.Rejected.Inc()
	w.Header().Set("Retry-After", retryAfterSeconds)
	WriteError(w, http.StatusTooManyRequests, err)
}

// writePlanningError maps a failed optimization to an HTTP code: 499 for
// client cancellation, 504 for a request-deadline timeout, 422 for
// planning failures (e.g. no plan within a price budget).
func (s *Server) writePlanningError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		s.metrics.Cancelled.Inc()
		WriteError(w, statusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, err)
	default:
		WriteError(w, http.StatusUnprocessableEntity, err)
	}
}

// handleOptimize answers an exact repeat of a request body from the
// response memo and plans anything else, filing the 200 it produces.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	cached, models, ok := s.memo.get(body)
	if ok {
		writeEncoded(w, cached)
		return
	}
	var req OptimizeRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	q, name, err := s.resolveQuery(req.Query, req.Relations)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	mode, optimize, err := OptimizeMode(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.admitted(w, r, func(ctx context.Context) {
		d, err := optimize(ctx, s.opt, q)
		if err != nil {
			s.writePlanningError(w, r, err)
			return
		}
		s.metrics.ObserveDecision(d)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, NewOptimizeResponse(name, mode, s.opt.Planner(), d)); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		writeEncoded(w, buf.Bytes())
		s.memo.put(body, buf.Bytes(), models)
	})
}

// OptimizeMode resolves req's Section IV use-case mode — "joint" (the
// default when empty), "fixed", "budget" or "price" — to its name and its
// optimizer call, bound to req's resources or budget; any other mode is
// an error. POST /v1/optimize and `raqo optimize` plan through it.
func OptimizeMode(req OptimizeRequest) (string, func(context.Context, *core.Optimizer, *plan.Query) (*core.Decision, error), error) {
	switch req.Mode {
	case "", "joint":
		return "joint", func(ctx context.Context, opt *core.Optimizer, q *plan.Query) (*core.Decision, error) {
			return opt.OptimizeCtx(ctx, q)
		}, nil
	case "fixed":
		return req.Mode, func(ctx context.Context, opt *core.Optimizer, q *plan.Query) (*core.Decision, error) {
			return opt.OptimizeFixedCtx(ctx, q, plan.Resources{Containers: req.Containers, ContainerGB: req.ContainerGB})
		}, nil
	case "budget":
		return req.Mode, func(ctx context.Context, opt *core.Optimizer, q *plan.Query) (*core.Decision, error) {
			return opt.OptimizeForBudgetCtx(ctx, q, req.Containers, req.ContainerGB)
		}, nil
	case "price":
		return req.Mode, func(ctx context.Context, opt *core.Optimizer, q *plan.Query) (*core.Decision, error) {
			return opt.OptimizeForPriceCtx(ctx, q, req.BudgetDollars)
		}, nil
	}
	return "", nil, fmt.Errorf("unknown mode %q", req.Mode)
}

// LookupOptimize looks a /v1/optimize request body up in the response
// memo on behalf of a front that routes such requests elsewhere (the
// fleet layer, for keys a peer owns). On a miss it returns the model set
// the lookup ran under, which FileOptimize takes back with the answer.
func (s *Server) LookupOptimize(body []byte) (resp []byte, models *cost.Models, ok bool) {
	return s.memo.get(body)
}

// FileOptimize files resp, the 200 body another node answered body with,
// unless the live model set has moved on from models since LookupOptimize.
func (s *Server) FileOptimize(body, resp []byte, models *cost.Models) {
	s.memo.put(body, resp, models)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("missing queries"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("at most %d queries per batch", maxBatchQueries))
		return
	}
	queries := make([]*plan.Query, len(req.Queries))
	for i, name := range req.Queries {
		q, _, err := s.resolveQuery(name, nil)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		queries[i] = q
	}
	s.admitted(w, r, func(ctx context.Context) {
		resp := BatchResponse{Results: make([]OptimizeResponse, len(queries))}
		for i, q := range queries {
			d, err := s.opt.OptimizeCtx(ctx, q)
			if err != nil {
				s.writePlanningError(w, r, fmt.Errorf("query %d (%s): %w", i, req.Queries[i], err))
				return
			}
			s.metrics.ObserveDecision(d)
			resp.Results[i] = NewOptimizeResponse(req.Queries[i], "joint", s.opt.Planner(), d)
		}
		if m := s.opt.Memo(); m != nil {
			resp.Memo = &MemoStats{Hits: m.Hits(), Misses: m.Misses(), Entries: m.Size()}
		}
		WriteResult(w, resp)
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, name, err := s.resolveQuery(r.PathValue("query"), nil)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.admitted(w, r, func(ctx context.Context) {
		d, err := s.opt.OptimizeCtx(ctx, q)
		if err != nil {
			s.writePlanningError(w, r, err)
			return
		}
		ops, err := s.opt.ExplainOperators(d)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		s.metrics.ObserveDecision(d)
		WriteResult(w, ExplainResponse{
			OptimizeResponse: NewOptimizeResponse(name, "joint", s.opt.Planner(), d),
			Operators:        NewExplainOperators(ops),
			PlanTree:         d.Plan.String(),
		})
	})
}

// feedbackScratch is what decoding one /v1/feedback request needs and
// nothing keeps afterwards: the store copies the observations it takes and
// the journal the lines, which are slices of body.
type feedbackScratch struct {
	body  bytes.Buffer
	obs   []feedback.Observation
	lines [][]byte
}

var feedbackScratchPool = sync.Pool{New: func() any { return new(feedbackScratch) }}

// release returns sc to the pool holding nothing of the request it served.
func (sc *feedbackScratch) release() {
	sc.reset()
	feedbackScratchPool.Put(sc)
}

// reset empties sc, zeroing the observations and lines it held so that a
// pooled scratch keeps no request's strings and slices alive.
func (sc *feedbackScratch) reset() {
	sc.body.Reset()
	clear(sc.obs)
	sc.obs = sc.obs[:0]
	clear(sc.lines)
	sc.lines = sc.lines[:0]
}

// failingReader yields err: what a decoder met after the body bytes that
// did arrive.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// handleFeedback ingests execution feedback, a batch as one unit: it is
// refused whole (400 for a malformed or invalid batch, 500 when the
// journal or the history store fails) or acknowledged whole. The 200
// acknowledges durability: the batch is journaled (one write, in
// FeedBatch) and the history block committed before the answer is written.
// An observation decoded by the codec is journaled as the bytes it
// arrived in (feedback.DecodeBatch's lines); one from the encoding/json
// fallback or stamped here is re-encoded.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	sc := feedbackScratchPool.Get().(*feedbackScratch)
	defer sc.release()
	_, readErr := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var obs []feedback.Observation
	var lines [][]byte
	canonical := false
	if readErr == nil {
		obs, lines, canonical = feedback.DecodeBatch(sc.body.Bytes(), sc.obs, sc.lines)
	}
	if canonical {
		sc.obs, sc.lines = obs, lines
	} else {
		// Anything but the canonical shape, a cut-off body included, gets
		// encoding/json's verdict on the same bytes and the same read error.
		s.metrics.FeedbackFallback.Inc()
		var body io.Reader = &sc.body
		if readErr != nil {
			body = io.MultiReader(body, failingReader{readErr})
		}
		var req FeedbackRequest
		if err := decodeStrict(body, &req); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		obs = req.Observations
	}
	if len(obs) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("missing observations"))
		return
	}
	now := time.Now().Unix()
	for i := range obs {
		if obs[i].ObservedAt == 0 {
			// Untimestamped observations completed "about now" as far as
			// the history store is concerned.
			obs[i].ObservedAt = now
		}
		if err := feedback.CheckObservedAt(obs[i].ObservedAt, now); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("observation %d: %w", i, err))
			return
		}
	}
	if err := s.rec.FeedBatch(obs, lines); err != nil {
		var invalid *feedback.InvalidError
		if errors.As(err, &invalid) {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("observation %d: %w", invalid.Index, invalid.Err))
		} else {
			WriteError(w, http.StatusInternalServerError, err) // journal I/O
		}
		return
	}
	for i := range obs {
		s.metrics.FeedbackError.Observe(obs[i].RelError())
	}
	// Write-before-ack for the error series too: the batch's history
	// points are written before the 200 goes out, or the batch is a 500.
	if s.hist != nil {
		if err := s.hist.Commit(); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeFixed(w, FeedbackResponse{
		Accepted: len(obs),
		Stored:   s.rec.Store().Len(),
		Total:    s.rec.Store().Total(),
		Drifted:  s.rec.Detector().Drifted(),
	}, appendFeedbackResponse)
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	writeFixed(w, NewModelResponse(s.rec), appendModelResponse)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteResult(w, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.Registry.WritePrometheus(w)
}
