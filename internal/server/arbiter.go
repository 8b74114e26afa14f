package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"raqo/internal/canonjson"
	"raqo/internal/cloud"
	"raqo/internal/core"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/scheduler"
	"raqo/internal/telemetry"
)

// This file is the HTTP face of the shared cluster: POST /v1/submit runs
// one query through the admission engine configured by cloud.SharedCluster
// on its virtual clock, GET /v1/arbiter/stats reports (and optionally
// drains) the simulated cluster. It also holds what the shared cluster and
// the cloud market (cloud.go) share: the state that serializes a
// single-threaded admission engine behind a mutex rather than the planning
// admission slots, the one mapping from admission errors to statuses, and
// the stats handler.

// sim serializes HTTP access to one single-threaded admission engine: the
// shared cluster's or the priced market's.
type sim struct {
	mu  sync.Mutex
	arb *cloud.Arbiter // guarded by mu
}

// SharedCluster is the shared cluster behind POST /v1/submit and GET
// /v1/arbiter/stats. Its methods need the engine to themselves: the
// handlers call them holding mu, and a caller of Server.Arbiter must not
// use them concurrently with the handlers.
type SharedCluster struct {
	sim
	// recals counts the recalibrations the completion hook made; the
	// server gives it no RecalEvery, so it stays 0 (see ArbiterStats).
	recals func() int64
}

// newSharedCluster builds the shared cluster on wl: capacity containers,
// every completion recorded as feedback into rec, and the raqo_arbiter_*
// metric families registered in reg.
func newSharedCluster(wl cloud.Workload, capacity int, rec *feedback.Recalibrator, reg *telemetry.Registry) (*SharedCluster, error) {
	cfg, err := cloud.SharedCluster(wl, capacity)
	if err != nil {
		return nil, err
	}
	admissions := reg.CounterVec("raqo_arbiter_admissions_total",
		"Queries admitted onto the shared pool, by scheduling policy.", "policy")
	rejections := reg.Counter("raqo_arbiter_rejections_total",
		"Submissions rejected by backpressure (full queue or infeasible request).")
	queueWait := reg.Histogram("raqo_arbiter_queue_wait_virtual_seconds",
		"Virtual seconds queries spent queued before admission.", queueWaitBuckets)
	occupancy := reg.Gauge("raqo_arbiter_pool_containers_in_use",
		"Containers of the shared pool currently held by running queries.")

	var e *cloud.Arbiter
	feed, recals := cloud.FeedbackHook(arbiterObserver(rec), nil, 0)
	cfg.Hooks.Admitted = func(o *cloud.Outcome) {
		admissions.With(policyLabel(o.Policy)).Inc()
		queueWait.Observe(o.QueueSeconds)
		occupancy.Set(int64(e.Pool().InUse()))
	}
	cfg.Hooks.Rejected = rejections.Inc
	cfg.Hooks.Completed = func(o *cloud.Outcome, d *core.Decision, res *execsim.Result) error {
		occupancy.Set(int64(e.Pool().InUse()))
		return feed(o, d, res)
	}
	if e, err = cloud.New(cfg); err != nil {
		return nil, err
	}
	return &SharedCluster{sim: sim{arb: e}, recals: recals}, nil
}

// queueWaitBuckets spans virtual queue times from instant admission to a
// pathological hour-long wait.
var queueWaitBuckets = []float64{1, 5, 15, 60, 300, 900, 3600}

// policyLabel maps a policy to a bounded metric label (the raqolint
// telemetry rule requires constant label cardinality).
func policyLabel(p scheduler.Policy) string {
	switch p {
	case scheduler.Wait:
		return "wait"
	case scheduler.Degrade:
		return "degrade"
	case scheduler.Reoptimize:
		return "reoptimize"
	}
	return "unknown"
}

// SubmitWait submits one query to the shared cluster at its current
// virtual time under policy and advances the clock just far enough to
// admit it (cloud.Arbiter.SubmitWaitWith).
func (c *SharedCluster) SubmitWait(tenant, query string, policy scheduler.Policy) (*cloud.Outcome, error) {
	e := c.arb //raqolint:ignore locks the handler holds mu; other callers hold the server alone (SharedCluster)
	return e.SubmitWaitWith(cloud.Arrival{Tenant: tenant, Query: query, Time: e.Now(), Policy: policy})
}

// ArbiterStats is the body of GET /v1/arbiter/stats: the shared cluster's
// view of the engine's Counts and Stats.
type ArbiterStats struct {
	Now           float64 `json:"nowSeconds"`
	Completed     int     `json:"completed"`
	InFlight      int     `json:"inFlight"`
	Queued        int     `json:"queued"`
	Rejected      int64   `json:"rejected"`
	Failed        int64   `json:"failed"`
	AdmittedWait  int64   `json:"admittedWait"`
	AdmittedDeg   int64   `json:"admittedDegrade"`
	AdmittedReopt int64   `json:"admittedReoptimize"`
	Replanned     int64   `json:"replanned"`
	Degraded      int64   `json:"degraded"`
	DegradeStalls int64   `json:"degradeStalls"`
	// Recals counts only the recalibrations the completion hook makes
	// every RecalEvery completions (cloud.FeedbackHook). The server sets
	// no RecalEvery: `raqo serve` recalibrates on its background loop,
	// which GET /v1/model shows, so on a served node this reads 0.
	Recals         int64   `json:"recalibrations"`
	FreeContainers int     `json:"freeContainers"`
	HeldGB         float64 `json:"heldGB"`
	// Planning answer sources (see core.IncrementalStats), submissions and
	// re-optimizations alike: planned from scratch, or answered from the
	// exact-conditions memo.
	ReoptFull  int64 `json:"reoptFull"`
	ReoptExact int64 `json:"reoptExact"`
	// ReoptPatched is always zero: the patch path it counted is gone, and
	// the field stays, off the wire, only because the benchmark
	// (bench/layers.go) reads it.
	ReoptPatched int64 `json:"-"`
}

// Stats summarizes the shared cluster's current state.
func (c *SharedCluster) Stats() ArbiterStats {
	e := c.arb //raqolint:ignore locks the handler holds mu; other callers hold the server alone (SharedCluster)
	g, n := e.Gauges(), e.Counts()
	return ArbiterStats{
		Now:            g.Now,
		Completed:      int(n.Completed),
		InFlight:       g.InFlight,
		Queued:         g.Queued,
		Rejected:       n.Shed + n.Dropped,
		Failed:         n.Failed,
		AdmittedWait:   n.Admitted[scheduler.Wait],
		AdmittedDeg:    n.Admitted[scheduler.Degrade],
		AdmittedReopt:  n.Admitted[scheduler.Reoptimize],
		Replanned:      n.Replanned,
		Degraded:       n.Degraded,
		DegradeStalls:  n.DegradeStalls,
		Recals:         c.recals(),
		FreeContainers: g.Free,
		HeldGB:         e.Pool().HeldGB(),
		ReoptFull:      n.ReoptFull,
		ReoptExact:     n.ReoptExact,
	}
}

// writeSubmitError answers a failed submission: backpressure
// (cloud.ErrRejected) is a 429 with Retry-After, an unknown tenant, query,
// policy or recovery a 400, and anything else — an execution failure at
// the chosen resources, a planning error — a 422.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var unknown *cloud.UnknownError
	switch {
	case errors.Is(err, cloud.ErrRejected):
		s.shed(w, err)
	case errors.As(err, &unknown):
		WriteError(w, http.StatusBadRequest, err)
	default:
		WriteError(w, http.StatusUnprocessableEntity, err)
	}
}

// serveStats answers a stats GET with write, called on st's engine holding
// its lock, draining first under ?drain=1.
func serveStats(st *sim, w http.ResponseWriter, r *http.Request, write func(*cloud.Arbiter)) {
	drain := false
	if v := r.URL.Query().Get("drain"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad drain %q: %w", v, err))
			return
		}
		drain = b
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if drain {
		if err := st.arb.Drain(); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
	}
	write(st.arb)
}

// The submit bodies' canonical form is one JSON object of string members
// among "tenant", "query" and "policy" (/v1/submit) or "recovery"
// (/v1/cloud/submit), each spelled exactly and at most once, with values
// of plain ASCII: canonjson.StringObject with these keys. decodeSubmit
// decodes any other body, and one cut off by a read error, with
// decodeStrict, so every 400 keeps encoding/json's text.
var (
	submitMembers      = []string{"tenant", "query", "policy"}
	cloudSubmitMembers = []string{"tenant", "query", "recovery"}
)

// submitRequest is a SubmitRequest or a CloudSubmitRequest.
type submitRequest interface {
	// members returns its string fields in the order of its keys.
	members() [3]*string
}

func (r *SubmitRequest) members() [3]*string { return [3]*string{&r.Tenant, &r.Query, &r.Policy} }

func (r *CloudSubmitRequest) members() [3]*string {
	return [3]*string{&r.Tenant, &r.Query, &r.Recovery}
}

// ScanSubmit scans body as a canonical POST /v1/submit body and returns
// its tenant, query and policy members as slices of body, each nil when
// absent. ok is false for any other body, which encoding/json decides.
// The fleet router takes its routing key from it.
func ScanSubmit(body []byte) (members [3][]byte, ok bool) {
	ok = canonjson.StringObject(body, submitMembers, members[:])
	return members, ok
}

// submitBodies pools the buffers submit bodies are read into.
var submitBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeSubmit reads a submit body whole and decodes it into req: itself
// when keys' canonical form takes it, through decodeStrict on the same
// bytes and the same read error otherwise.
func decodeSubmit(w http.ResponseWriter, r *http.Request, keys []string, req submitRequest) error {
	buf := submitBodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledJSON {
			buf.Reset()
			submitBodies.Put(buf)
		}
	}()
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var vals [3][]byte
	if readErr == nil && canonjson.StringObject(buf.Bytes(), keys, vals[:]) {
		for i, f := range req.members() {
			*f = string(vals[i])
		}
		return nil
	}
	var body io.Reader = buf
	if readErr != nil {
		body = io.MultiReader(body, failingReader{readErr})
	}
	return decodeStrict(body, req)
}

// SubmitRequest is the body of POST /v1/submit: one workload query for
// the shared cluster, decoded strictly: an unknown field (a
// "recovery" included), a value that is not a string or null, a second
// JSON value or a malformed one is a 400. Member names match ASCII
// case-insensitively, as encoding/json's do; every value is
// case-sensitive, and null reads as "". Each field's domain is stated as
// the handler enforces it; every field is checked. A valid submission is
// a 429 with Retry-After when the arbiter sheds it (a "wait" gang larger
// than the cluster ever holds, or one no idle cluster admits) and a 422
// when its plan cannot be made or fails to run at the resources chosen.
type SubmitRequest struct {
	// Tenant is optional: "" selects "default". Any other value must name
	// a tenant of Config.ArbiterTenants (only "default" when that is nil);
	// an unknown one is a 400.
	Tenant string `json:"tenant,omitempty"`
	// Query is required: a TPC-H evaluation query name, Q12, Q3, Q2 or All.
	// An absent or empty one is a 400 ("missing query"), and so is any
	// other name.
	Query string `json:"query"`
	// Policy is optional: what the arbiter does when the cluster cannot
	// satisfy the submission-time plan, "wait", "degrade" or "reoptimize"
	// ("" selects reoptimize, adaptive RAQO). Any other is a 400, reported
	// before a missing query.
	Policy string `json:"policy,omitempty"`
}

// SubmitResponse is the outcome of one arbitrated query. All times are
// virtual seconds on the shared cluster's discrete-event clock; Finish
// lies in the virtual future (the gang stays held, so later submissions
// contend with it). QueueSeconds is Start - Arrival, and QueueRunRatio is
// cloud.Outcome.QueueRunRatio, Figure 1's ratio.
type SubmitResponse struct {
	Tenant         string  `json:"tenant"`
	Query          string  `json:"query"`
	Policy         string  `json:"policy"`
	ArrivalSeconds float64 `json:"arrivalSeconds"`
	StartSeconds   float64 `json:"startSeconds"`
	FinishSeconds  float64 `json:"finishSeconds"`
	QueueSeconds   float64 `json:"queueSeconds"`
	ExecSeconds    float64 `json:"execSeconds"`
	QueueRunRatio  float64 `json:"queueRunRatio"`
	Replanned      bool    `json:"replanned"`
	Degraded       bool    `json:"degraded"`
	Containers     int     `json:"containers"`
	ContainerGB    float64 `json:"containerGB"`
}

// NewSubmitResponse converts a shared-cluster admission outcome to its
// wire form.
func NewSubmitResponse(o *cloud.Outcome) SubmitResponse {
	return SubmitResponse{
		Tenant:         o.Tenant,
		Query:          o.Query,
		Policy:         o.Policy.String(),
		ArrivalSeconds: o.Arrival,
		StartSeconds:   o.Start,
		FinishSeconds:  o.Finish,
		QueueSeconds:   o.Start - o.Arrival,
		ExecSeconds:    o.ExecSeconds,
		QueueRunRatio:  o.QueueRunRatio(),
		Replanned:      o.Replanned,
		Degraded:       o.Degraded,
		Containers:     o.Containers,
		ContainerGB:    o.ContainerGB,
	}
}

func appendSubmitResponse(dst []byte, r SubmitResponse) ([]byte, bool) {
	o := openObject(dst, "  ")
	o.stringMember("tenant", r.Tenant)
	o.stringMember("query", r.Query)
	o.stringMember("policy", r.Policy)
	o.floatMember("arrivalSeconds", r.ArrivalSeconds)
	o.floatMember("startSeconds", r.StartSeconds)
	o.floatMember("finishSeconds", r.FinishSeconds)
	o.floatMember("queueSeconds", r.QueueSeconds)
	o.floatMember("execSeconds", r.ExecSeconds)
	o.floatMember("queueRunRatio", r.QueueRunRatio)
	o.boolMember("replanned", r.Replanned)
	o.boolMember("degraded", r.Degraded)
	o.intMember("containers", int64(r.Containers))
	o.floatMember("containerGB", r.ContainerGB)
	return o.end()
}

// Arbiter returns the server's shared cluster (primarily for tests and
// the benchmark). Callers must not use it concurrently with the HTTP
// handlers.
func (s *Server) Arbiter() *SharedCluster { return s.arb }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeSubmit(w, r, submitMembers, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Policy == "" {
		req.Policy = scheduler.Reoptimize.String()
	}
	policy, err := scheduler.ParsePolicy(req.Policy)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		WriteError(w, http.StatusBadRequest, errors.New("missing query"))
		return
	}

	s.arb.mu.Lock()
	out, err := s.arb.SubmitWait(req.Tenant, req.Query, policy)
	s.arb.mu.Unlock()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeFixed(w, NewSubmitResponse(out), appendSubmitResponse)
}

func (s *Server) handleArbiterStats(w http.ResponseWriter, r *http.Request) {
	serveStats(&s.arb.sim, w, r, func(*cloud.Arbiter) { writeFixed(w, s.arb.Stats(), appendArbiterStats) })
}

// appendArbiterStats appends WriteResult's bytes for st.
func appendArbiterStats(dst []byte, st ArbiterStats) ([]byte, bool) {
	o := openObject(dst, "  ")
	o.floatMember("nowSeconds", st.Now)
	o.intMember("completed", int64(st.Completed))
	o.intMember("inFlight", int64(st.InFlight))
	o.intMember("queued", int64(st.Queued))
	o.intMember("rejected", st.Rejected)
	o.intMember("failed", st.Failed)
	o.intMember("admittedWait", st.AdmittedWait)
	o.intMember("admittedDegrade", st.AdmittedDeg)
	o.intMember("admittedReoptimize", st.AdmittedReopt)
	o.intMember("replanned", st.Replanned)
	o.intMember("degraded", st.Degraded)
	o.intMember("degradeStalls", st.DegradeStalls)
	o.intMember("recalibrations", st.Recals)
	o.intMember("freeContainers", int64(st.FreeContainers))
	o.floatMember("heldGB", st.HeldGB)
	o.intMember("reoptFull", st.ReoptFull)
	o.intMember("reoptExact", st.ReoptExact)
	return o.end()
}

// defaultTenants is the single "default" tenant installed when
// Config.ArbiterTenants or Config.CloudTenants is nil.
func defaultTenants() []cloud.TenantConfig {
	return []cloud.TenantConfig{{Name: "default", Weight: 1}}
}

// arbiterObserver wires shared-cluster completions into the server's
// feedback recalibrator. Observations are stamped with the wall clock, not
// the engine's virtual finish time: the serving history store runs on wall
// time, and virtual timestamps near zero would land decades in its past.
func arbiterObserver(rec *feedback.Recalibrator) *feedback.Observer {
	return &feedback.Observer{Recal: rec, Now: func() int64 { return time.Now().Unix() }}
}
