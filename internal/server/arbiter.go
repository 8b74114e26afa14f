package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"raqo/internal/arbiter"
	"raqo/internal/cloud"
	"raqo/internal/feedback"
	"raqo/internal/scheduler"
)

// This file is the HTTP face of internal/arbiter: POST /v1/submit runs
// one query through the shared-cluster workload arbiter on its virtual
// clock, GET /v1/arbiter/stats reports (and optionally drains) the
// simulated cluster. It also holds what the arbiter and the cloud market
// (cloud.go) share: the state that serializes a single-threaded admission
// loop behind a mutex rather than the planning admission slots, the one
// mapping from admission errors to statuses, and the stats handler.

// sim serializes HTTP access to one single-threaded admission loop: the
// shared cluster (internal/arbiter) or the priced market (internal/cloud).
type sim[A interface{ Drain() error }] struct {
	mu  sync.Mutex
	arb A // guarded by mu
}

// writeSubmitError answers a failed submission: backpressure
// (cloud.ErrRejected) is a 429 with Retry-After, an unknown tenant, query,
// policy or recovery a 400, and anything else — an execution failure at
// the chosen resources, a planning error — a 422.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var unknown *cloud.UnknownError
	switch {
	case errors.Is(err, cloud.ErrRejected):
		s.metrics.Rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())+1))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.As(err, &unknown):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

// serveStats answers a stats GET with stats(arb), draining first under
// ?drain=1.
func (st *sim[A]) serveStats(w http.ResponseWriter, r *http.Request, stats func(A) any) {
	drain := false
	if v := r.URL.Query().Get("drain"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad drain %q: %w", v, err))
			return
		}
		drain = b
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if drain {
		if err := st.arb.Drain(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	WriteResult(w, stats(st.arb))
}

// SubmitRequest is the body of POST /v1/submit: one workload query for
// the arbiter's shared cluster.
type SubmitRequest struct {
	// Tenant selects the submitting tenant; "" selects "default" (the
	// single tenant configured when Config.ArbiterTenants is nil).
	Tenant string `json:"tenant,omitempty"`
	// Query is a TPC-H evaluation query name (Q12, Q3, Q2, All).
	Query string `json:"query"`
	// Policy is what the arbiter does when the cluster cannot satisfy the
	// submission-time plan: "wait", "degrade" or "reoptimize" (default —
	// adaptive RAQO).
	Policy string `json:"policy,omitempty"`
}

// SubmitResponse is the outcome of one arbitrated query. All times are
// virtual seconds on the arbiter's discrete-event clock; Finish lies in
// the virtual future (the gang stays held, so later submissions contend
// with it).
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

// NewSubmitResponse converts an arbiter outcome to its wire form.
func NewSubmitResponse(o *arbiter.Outcome) SubmitResponse {
	return SubmitResponse{
		Tenant:         o.Tenant,
		Query:          o.Query,
		Policy:         o.Policy.String(),
		ArrivalSeconds: o.Arrival,
		StartSeconds:   o.Start,
		FinishSeconds:  o.Finish,
		QueueSeconds:   o.QueueSeconds,
		ExecSeconds:    o.ExecSeconds,
		QueueRunRatio:  o.Ratio(),
		Replanned:      o.Replanned,
		Degraded:       o.Degraded,
		Containers:     o.Containers,
		ContainerGB:    o.ContainerGB,
	}
}

// ArbiterStatsResponse is the body of GET /v1/arbiter/stats.
type ArbiterStatsResponse struct {
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
	// Planning answer sources: from-scratch plans and exact-conditions
	// memo hits.
	ReoptFull  int64 `json:"reoptFull"`
	ReoptExact int64 `json:"reoptExact"`
}

// NewArbiterStatsResponse converts an arbiter stats snapshot.
func NewArbiterStatsResponse(st arbiter.Stats) ArbiterStatsResponse {
	return ArbiterStatsResponse{
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

// Arbiter returns the server's workload arbiter (primarily for tests).
// Callers must not use it concurrently with the HTTP handlers.
//
//raqolint:ignore locks test-only accessor; the doc contract forbids concurrent use
func (s *Server) Arbiter() *arbiter.Arbiter { return s.arb.arb }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
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
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing query"))
		return
	}

	s.arb.mu.Lock()
	out, err := s.arb.arb.SubmitWait(req.Tenant, req.Query, policy)
	s.arb.mu.Unlock()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	WriteResult(w, NewSubmitResponse(out))
}

func (s *Server) handleArbiterStats(w http.ResponseWriter, r *http.Request) {
	s.arb.serveStats(w, r, func(a *arbiter.Arbiter) any { return NewArbiterStatsResponse(a.Stats()) })
}

// defaultTenants is the single unlimited "default" tenant installed when
// Config.ArbiterTenants or Config.CloudTenants is nil.
func defaultTenants() []cloud.TenantConfig {
	return []cloud.TenantConfig{{Name: "default", Weight: 1}}
}

// arbiterObserver wires arbiter completions into the server's feedback
// recalibrator. Observations are stamped with the wall clock, not the
// arbiter's virtual finish time: the serving history store runs on wall
// time, and virtual timestamps near zero would land decades in its past.
func arbiterObserver(rec *feedback.Recalibrator) *feedback.Observer {
	return &feedback.Observer{Recal: rec, Now: func() int64 { return time.Now().Unix() }}
}
