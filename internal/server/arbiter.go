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

	"raqo/internal/arbiter"
	"raqo/internal/canonjson"
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
		s.shed(w, err)
	case errors.As(err, &unknown):
		WriteError(w, http.StatusBadRequest, err)
	default:
		WriteError(w, http.StatusUnprocessableEntity, err)
	}
}

// serveStats answers a stats GET with stats(st's arbiter) in appendT's
// fixed shape, draining first under ?drain=1.
func serveStats[A interface{ Drain() error }, T any](st *sim[A], w http.ResponseWriter, r *http.Request, stats func(A) T, appendT func([]byte, T) ([]byte, bool)) {
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
	writeFixed(w, stats(st.arb), appendT)
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
// the arbiter's shared cluster, decoded strictly: an unknown field (a
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

// Arbiter returns the server's workload arbiter (primarily for tests).
// Callers must not use it concurrently with the HTTP handlers.
//
//raqolint:ignore locks test-only accessor; the doc contract forbids concurrent use
func (s *Server) Arbiter() *arbiter.Arbiter { return s.arb.arb }

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
	out, err := s.arb.arb.SubmitWait(req.Tenant, req.Query, policy)
	s.arb.mu.Unlock()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeFixed(w, NewSubmitResponse(out), appendSubmitResponse)
}

func (s *Server) handleArbiterStats(w http.ResponseWriter, r *http.Request) {
	serveStats(s.arb, w, r, (*arbiter.Arbiter).Stats, appendArbiterStats)
}

// appendArbiterStats appends WriteResult's bytes for st.
func appendArbiterStats(dst []byte, st arbiter.Stats) ([]byte, bool) {
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

// arbiterObserver wires arbiter completions into the server's feedback
// recalibrator. Observations are stamped with the wall clock, not the
// arbiter's virtual finish time: the serving history store runs on wall
// time, and virtual timestamps near zero would land decades in its past.
func arbiterObserver(rec *feedback.Recalibrator) *feedback.Observer {
	return &feedback.Observer{Recal: rec, Now: func() int64 { return time.Now().Unix() }}
}
