// Package server turns the RAQO library into the long-running optimizer
// service the paper's Figure 8 architecture describes: a component inside
// a shared big-data system that answers joint (plan, resource) requests
// continuously. A process-wide warm resource-plan cache and operator-cost
// memo realize the cross-query reuse of Figures 14/15b in serving, and in
// front of them a response memo answers an exact repeat of an optimize
// request with the bytes that answered it before (memo.go); admission
// control bounds in-flight planning work (bounded slots + FIFO
// wait queue + 429 on overload, the serving restatement of
// internal/scheduler's policies); request contexts are threaded into the
// planner search loops so abandoned requests stop burning CPU.
//
// Endpoints:
//
//	POST /v1/optimize         one query, modes joint|fixed|budget|price
//	POST /v1/batch            concurrent workload via core.OptimizeBatch
//	GET  /v1/explain/{query}  plan tree + resources + cost breakdown
//	POST /v1/feedback         execution observations into the feedback store
//	GET  /v1/model            live cost-model version + drift/error stats
//	POST /v1/submit           one workload query through the shared-cluster arbiter
//	GET  /v1/arbiter/stats    arbiter state; ?drain=1 drains the virtual cluster
//	POST /v1/cloud/submit     one query through the elastic priced cloud pool
//	POST /v1/cloud/preempt    revoke a fraction of running spot allocations
//	GET  /v1/cloud/stats      cloud market state; ?drain=1 drains the pool
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text exposition (internal/telemetry)
//
// The server also closes the execution-feedback loop (internal/feedback):
// observations posted to /v1/feedback accumulate in a bounded store
// (optionally journaled to JSONL), a background goroutine watches the
// drift detector, and on drift the cost models are retrained and swapped
// atomically — subsequent optimize calls plan under the recalibrated,
// versioned model set and the resource-plan cache is invalidated once per
// swap.
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
	"strconv"
	"strings"
	"sync"
	"time"

	"raqo/internal/arbiter"
	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/telemetry"
	"raqo/internal/workload"
)

// statusClientClosedRequest is nginx's convention for "client went away
// before the response"; the body is never seen, but the access log and
// the response-code metric are.
const statusClientClosedRequest = 499

// Config configures a Server. Zero values select serving defaults.
type Config struct {
	// SF is the TPC-H scale factor of the served schema; 0 selects 100
	// (the paper's evaluation scale).
	SF float64
	// Conditions is the cluster the optimizer plans against; zero selects
	// cluster.Default().
	Conditions cluster.Conditions
	// Options configures the shared optimizer. When Options.Resource is
	// nil a process-wide resource-plan cache (nearest-neighbor,
	// CacheThresholdGB) is installed; MemoizeCosts is forced on so the
	// cost memo stays warm across requests.
	Options core.Options
	// CacheThresholdGB is the installed cache's data-delta threshold;
	// 0 selects 1 GB.
	CacheThresholdGB float64
	// DisableCostMemo turns off the shared operator-cost memo (on by
	// default in serving so repeated sub-problems skip costing entirely).
	// With the memo off every costing probes the resource-plan cache.
	DisableCostMemo bool

	// MaxInFlight bounds concurrently planning requests; 0 selects
	// max(2, NumCPU).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue; 0 selects 64.
	MaxQueue int
	// QueueTimeout is the per-request admission deadline; 0 selects 2s.
	QueueTimeout time.Duration
	// RequestTimeout bounds one request's planning time; 0 selects 30s.
	RequestTimeout time.Duration
	// RetryAfter is advertised on 429 responses; 0 selects 1s.
	RetryAfter time.Duration
	// DrainTimeout bounds graceful shutdown; 0 selects 10s.
	DrainTimeout time.Duration

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
	// drift detection over them (feedback.Detector.SetHistory) is driven
	// only by `raqo figure history`. Empty disables history entirely.
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
	// selects a single unlimited "default" tenant.
	ArbiterTenants []arbiter.TenantConfig
	// ArbiterRecalEvery asks the arbiter to offer the recalibrator a drift
	// check every N completions; 0 disables (the background RecalInterval
	// loop still covers drift from posted feedback).
	ArbiterRecalEvery int

	// CloudOnDemand and CloudSpot size the two-tier priced market behind
	// POST /v1/cloud/submit; 0 selects 12 on-demand and 24 spot 10GB
	// containers (CloudSpot < 0 omits the spot class).
	CloudOnDemand int
	CloudSpot     int
	// CloudSpotDiscount is the fraction taken off the on-demand rate for
	// spot capacity; 0 selects 0.7 (spot costs 30% of on-demand).
	CloudSpotDiscount float64
	// CloudSeed seeds the cloud pool's spot-interruption process; 0 runs
	// the pool fault-free (storms are still available via
	// POST /v1/cloud/preempt).
	CloudSeed int64
	// CloudAutoscale puts the spot class under the budget-aware
	// autoscaler, elastic between a quarter and double CloudSpot.
	CloudAutoscale bool
	// CloudTenants configures the cloud arbiter's tenants; nil selects a
	// single unlimited "default" tenant.
	CloudTenants []cloud.TenantConfig
}

func (c Config) withDefaults() Config {
	if c.SF == 0 {
		c.SF = 100
	}
	if c.Conditions == (cluster.Conditions{}) {
		c.Conditions = cluster.Default()
	}
	if c.CacheThresholdGB == 0 {
		c.CacheThresholdGB = 1
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
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
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
	if c.CloudSpotDiscount == 0 {
		c.CloudSpotDiscount = 0.7
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
	cache   *resource.Cache        // nil when the caller supplied Options.Resource
	memo    *responseMemo          // exact-hit tier of /v1/optimize
	metrics *Metrics
	admit   *admission
	mux     *http.ServeMux
	start   time.Time
	rec     *feedback.Recalibrator
	journal *feedback.Journal // nil unless Config.JournalPath was set
	hist    *history.Store    // nil unless Config.HistoryDir was set
	arb     *sim[*arbiter.Arbiter]
	cld     *sim[*cloud.Arbiter]
}

// New builds a Server: schema, shared warm optimizer, metric registry and
// routes. The returned server is ready to serve via Handler or Serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	opts := cfg.Options
	var cache *resource.Cache
	if opts.Resource == nil {
		cache = &resource.Cache{
			Inner:       &resource.HillClimb{},
			Mode:        resource.NearestNeighbor,
			ThresholdGB: cfg.CacheThresholdGB,
		}
		opts.Resource = cache
	} else if c, ok := opts.Resource.(*resource.Cache); ok {
		cache = c
	}
	opts.MemoizeCosts = !cfg.DisableCostMemo
	opt, err := core.New(cfg.Conditions, opts)
	if err != nil {
		return nil, err
	}

	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	m.AttachCache(cache)
	m.AttachMemo(opt.Memo())

	var journal *feedback.Journal
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
	rec.Cache = cache
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
	var hist *history.Store
	if cfg.HistoryDir != "" {
		hist, err = history.Open(cfg.HistoryDir, history.Config{RawRetention: cfg.HistoryRetention})
		if err != nil {
			if journal != nil {
				_ = journal.Close()
			}
			return nil, err
		}
		rec.Detector().SetRecorder(hist)
		m.AttachHistory(hist)
	}

	sch := catalog.TPCH(cfg.SF)
	// The shared cluster and the priced market, two pools under one
	// admission engine, share one simulation optimizer beside the serving
	// one: it plans memory-aware (Engine) with a bare hill climb, where the
	// serving optimizer answers from the resource-plan cache. Each arbiter
	// passes its admission-time conditions per call through its own
	// core.Incremental, so the optimizer holds no per-arbiter state; its
	// cost memo is keyed by those conditions and safe for concurrent use.
	// Both optimizers follow the same live model set via OnSwap.
	engine := execsim.Hive()
	simOpt, err := core.New(cfg.Conditions, core.Options{
		Models:       opt.Models(),
		Engine:       &engine,
		MemoizeCosts: true,
	})
	if err != nil {
		return nil, err
	}
	rec.OnSwap(func(_ feedback.Recalibration, info *feedback.ModelInfo) {
		_ = simOpt.SetModels(info.Models)
	})
	queries, err := workload.TPCHQueries(sch)
	if err != nil {
		return nil, err
	}
	shared := cloud.Workload{
		Base:      cfg.Conditions,
		Engine:    engine,
		Pricing:   cost.DefaultPricing(),
		Optimizer: simOpt,
		Queries:   queries,
	}
	shared.Tenants = cfg.ArbiterTenants
	arb, err := arbiter.New(arbiter.Config{
		Workload:   shared,
		Capacity:   cfg.ArbiterCapacity,
		Feedback:   arbiterObserver(rec),
		RecalEvery: cfg.ArbiterRecalEvery,
		Metrics:    arbiter.NewMetrics(reg),
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
		cache:   cache,
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
	mux.HandleFunc("POST /v1/optimize", s.instrument("/v1/optimize", s.handleOptimize))
	mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", s.handleBatch))
	mux.HandleFunc("GET /v1/explain/{query}", s.instrument("/v1/explain", s.handleExplain))
	mux.HandleFunc("POST /v1/feedback", s.instrument("/v1/feedback", s.handleFeedback))
	mux.HandleFunc("POST /v1/submit", s.instrument("/v1/submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/arbiter/stats", s.instrument("/v1/arbiter/stats", s.handleArbiterStats))
	mux.HandleFunc("POST /v1/cloud/submit", s.instrument("/v1/cloud/submit", s.handleCloudSubmit))
	mux.HandleFunc("POST /v1/cloud/preempt", s.instrument("/v1/cloud/preempt", s.handleCloudPreempt))
	mux.HandleFunc("GET /v1/cloud/stats", s.instrument("/v1/cloud/stats", s.handleCloudStats))
	mux.HandleFunc("GET /v1/history", s.instrument("/v1/history", s.handleHistory))
	mux.HandleFunc("GET /v1/model", s.instrument("/v1/model", s.handleModel))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// Metrics returns the server's metric set (primarily for tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache returns the installed resource-plan cache, or nil when the caller
// supplied a non-cache planner.
func (s *Server) Cache() *resource.Cache { return s.cache }

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

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Serve listens on addr and serves until ctx is cancelled (SIGTERM in
// cmd/raqo), then drains gracefully: the listener closes, in-flight
// requests get up to DrainTimeout to finish, and Serve returns nil on a
// clean drain. ready, when non-nil, is called with the bound address once
// the listener is up — the hook ephemeral-port callers (smoke tests)
// need.
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
	if handler == nil {
		handler = s.mux
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	// Background recalibration: drift-gated, stopped (and waited for)
	// before Serve returns so shutdown never leaks the goroutine.
	loopCtx, stopLoop := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	if s.cfg.RecalInterval > 0 {
		go func() {
			defer close(loopDone)
			_ = s.rec.Loop(loopCtx, s.cfg.RecalInterval, nil)
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

	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := hs.Shutdown(drainCtx); err != nil {
			return fmt.Errorf("server: drain: %w", err)
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	}
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

// writeError renders the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, err error) {
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
		writeError(w, http.StatusInternalServerError, err)
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

// maxBodyBytes bounds request bodies; optimizer requests are tiny.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes a JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
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
			s.metrics.Rejected.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())+1))
			writeError(w, http.StatusTooManyRequests, err)
		default: // client cancelled while queued
			s.metrics.Cancelled.Inc()
			writeError(w, statusClientClosedRequest, err)
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

// writePlanningError maps a failed optimization to an HTTP code: 499 for
// client cancellation, 504 for a request-deadline timeout, 422 for
// planning failures (e.g. no plan within a price budget).
func (s *Server) writePlanningError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		s.metrics.Cancelled.Inc()
		writeError(w, statusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

// handleOptimize answers an exact repeat of a request body from the
// response memo and plans anything else, filing the 200 it produces.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	cached, models, ok := s.memo.get(body)
	if ok {
		writeEncoded(w, cached)
		return
	}
	var req OptimizeRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	q, name, err := s.resolveQuery(req.Query, req.Relations)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "joint"
	}
	switch mode {
	case "joint", "fixed", "budget", "price":
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q", mode))
		return
	}
	s.admitted(w, r, func(ctx context.Context) {
		var d *core.Decision
		var err error
		switch mode {
		case "joint":
			d, err = s.opt.OptimizeCtx(ctx, q)
		case "fixed":
			d, err = s.opt.OptimizeFixedCtx(ctx, q, plan.Resources{Containers: req.Containers, ContainerGB: req.ContainerGB})
		case "budget":
			d, err = s.opt.OptimizeForBudgetCtx(ctx, q, req.Containers, req.ContainerGB)
		case "price":
			d, err = s.opt.OptimizeForPriceCtx(ctx, q, req.BudgetDollars)
		}
		if err != nil {
			s.writePlanningError(w, r, err)
			return
		}
		s.metrics.ObserveDecision(d)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, NewOptimizeResponse(name, mode, s.opt.Planner(), d)); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeEncoded(w, buf.Bytes())
		s.memo.put(body, buf.Bytes(), models)
	})
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
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing queries"))
		return
	}
	queries := make([]*plan.Query, len(req.Queries))
	for i, name := range req.Queries {
		q, _, err := s.resolveQuery(name, nil)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		queries[i] = q
	}
	s.admitted(w, r, func(ctx context.Context) {
		decisions, err := s.opt.OptimizeBatchCtx(ctx, queries, req.Parallel)
		if err != nil {
			s.writePlanningError(w, r, err)
			return
		}
		resp := BatchResponse{Results: make([]OptimizeResponse, len(decisions))}
		for i, d := range decisions {
			s.metrics.ObserveDecision(d)
			resp.Results[i] = NewOptimizeResponse(req.Queries[i], "joint", s.opt.Planner(), d)
		}
		if s.cache != nil {
			cs := NewCacheStats(s.cache.Stats())
			resp.Cache = &cs
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
		writeError(w, http.StatusBadRequest, err)
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
			writeError(w, http.StatusInternalServerError, err)
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
	sc.body.Reset()
	clear(sc.obs)
	sc.obs = sc.obs[:0]
	clear(sc.lines)
	sc.lines = sc.lines[:0]
	feedbackScratchPool.Put(sc)
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
//
//raqo:ack
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	sc := feedbackScratchPool.Get().(*feedbackScratch)
	defer sc.release()
	_, readErr := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
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
			writeError(w, http.StatusBadRequest, err)
			return
		}
		obs = req.Observations
	}
	if len(obs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing observations"))
		return
	}
	now := time.Now().Unix()
	for i := range obs {
		if obs[i].ObservedAt == 0 {
			// Untimestamped observations completed "about now" as far as
			// the history store is concerned.
			obs[i].ObservedAt = now
		}
	}
	if err := s.rec.FeedBatch(obs, lines); err != nil {
		var invalid *feedback.InvalidError
		if errors.As(err, &invalid) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("observation %d: %w", invalid.Index, invalid.Err))
		} else {
			writeError(w, http.StatusInternalServerError, err) // journal I/O
		}
		return
	}
	for i := range obs {
		s.metrics.FeedbackError.Observe(obs[i].RelError())
	}
	// Journal-before-ack for the error series too: the batch's history
	// points are durable before the 200 goes out.
	if s.hist != nil {
		if err := s.hist.Commit(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeFeedbackResponse(w, FeedbackResponse{
		Accepted: len(obs),
		Stored:   s.rec.Store().Len(),
		Total:    s.rec.Store().Total(),
		Drifted:  s.rec.Detector().Drifted(),
	})
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	WriteResult(w, NewModelResponse(s.rec))
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
