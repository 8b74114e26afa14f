package server

import (
	"errors"
	"fmt"
	"net/http"

	"raqo/internal/cloud"
	"raqo/internal/units"
)

// This file is the HTTP face of internal/cloud: POST /v1/cloud/submit
// runs one query through the elastic priced pool on its virtual clock,
// POST /v1/cloud/preempt fires a spot-interruption storm against the
// currently running allocations, and GET /v1/cloud/stats reports (and
// optionally drains) the market. The state, the error mapping and the
// stats handler are the shared cluster's (arbiter.go).

// CloudSubmitRequest is the body of POST /v1/cloud/submit.
type CloudSubmitRequest struct {
	// Tenant selects the submitting tenant; "" selects "default" (the
	// single tenant configured when Config.CloudTenants is nil).
	Tenant string `json:"tenant,omitempty"`
	// Query is a TPC-H evaluation query name (Q12, Q3, Q2, All).
	Query string `json:"query"`
	// Recovery is what happens if the allocation is preempted mid-run:
	// "reoptimize" (default), "ondemand" or "degrade".
	Recovery string `json:"recovery,omitempty"`
}

// CloudSubmitResponse is the outcome of one cloud-arbitrated query. All
// times are virtual seconds; Finish lies in the virtual future (the gang
// stays held, so later submissions contend with it).
type CloudSubmitResponse struct {
	Tenant         string    `json:"tenant"`
	Query          string    `json:"query"`
	Recovery       string    `json:"recovery"`
	Class          string    `json:"class"`
	Tier           string    `json:"tier"`
	ArrivalSeconds float64   `json:"arrivalSeconds"`
	StartSeconds   float64   `json:"startSeconds"`
	FinishSeconds  float64   `json:"finishSeconds"`
	QueueSeconds   float64   `json:"queueSeconds"`
	ExecSeconds    float64   `json:"execSeconds"`
	Preemptions    int       `json:"preemptions"`
	OOMRetries     int       `json:"oomRetries"`
	Straggled      bool      `json:"straggled"`
	Degraded       bool      `json:"degraded"`
	Replanned      bool      `json:"replanned"`
	Containers     int       `json:"containers"`
	ContainerGB    float64   `json:"containerGB"`
	BillUSD        units.USD `json:"billUSD"`
}

// NewCloudSubmitResponse converts a cloud outcome to its wire form.
func NewCloudSubmitResponse(o *cloud.Outcome) CloudSubmitResponse {
	return CloudSubmitResponse{
		Tenant:         o.Tenant,
		Query:          o.Query,
		Recovery:       o.Recovery.String(),
		Class:          o.Class,
		Tier:           o.Tier.String(),
		ArrivalSeconds: o.Arrival,
		StartSeconds:   o.Start,
		FinishSeconds:  o.Finish,
		QueueSeconds:   o.QueueSeconds,
		ExecSeconds:    o.ExecSeconds,
		Preemptions:    o.Preemptions,
		OOMRetries:     o.OOMRetries,
		Straggled:      o.Straggled,
		Degraded:       o.Degraded,
		Replanned:      o.Replanned,
		Containers:     o.Containers,
		ContainerGB:    o.ContainerGB,
		BillUSD:        o.BillUSD,
	}
}

// CloudPreemptRequest is the body of POST /v1/cloud/preempt: an
// operator-triggered spot interruption storm.
type CloudPreemptRequest struct {
	// Fraction of currently running spot allocations to revoke, in
	// (0, 1]; revoked queries recover via their submission policies.
	Fraction float64 `json:"fraction"`
}

// CloudPreemptResponse reports a storm's effect.
type CloudPreemptResponse struct {
	Revoked int         `json:"revoked"`
	Stats   cloud.Stats `json:"stats"`
}

// Cloud returns the server's cloud arbiter (primarily for tests).
// Callers must not use it concurrently with the HTTP handlers.
//
//raqolint:ignore locks test-only accessor; the doc contract forbids concurrent use
func (s *Server) Cloud() *cloud.Arbiter { return s.cld.arb }

func (s *Server) handleCloudSubmit(w http.ResponseWriter, r *http.Request) {
	var req CloudSubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	rec, err := cloud.ParseRecovery(req.Recovery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing query"))
		return
	}

	s.cld.mu.Lock()
	out, err := s.cld.arb.SubmitWait(req.Tenant, req.Query, rec)
	s.cld.mu.Unlock()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	WriteResult(w, NewCloudSubmitResponse(out))
}

func (s *Server) handleCloudPreempt(w http.ResponseWriter, r *http.Request) {
	var req CloudPreemptRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Fraction <= 0 || req.Fraction > 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fraction %g outside (0, 1]", req.Fraction))
		return
	}
	s.cld.mu.Lock()
	defer s.cld.mu.Unlock()
	n, err := s.cld.arb.PreemptFraction(req.Fraction)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	WriteResult(w, CloudPreemptResponse{Revoked: n, Stats: s.cld.arb.Stats()})
}

func (s *Server) handleCloudStats(w http.ResponseWriter, r *http.Request) {
	s.cld.serveStats(w, r, func(a *cloud.Arbiter) any { return a.Stats() })
}

// cloudMarket builds the serving market from the config knobs: a
// two-tier 10GB market, with the spot class made elastic when the
// autoscaler is on (floor a quarter of the configured spot count, ceiling
// double it) so scale events have room in both directions.
func cloudMarket(cfg Config) cloud.Market {
	m := cloud.DefaultMarket(cfg.CloudOnDemand, cfg.CloudSpot, cfg.CloudSpotDiscount)
	if cfg.CloudAutoscale && cfg.CloudSpot > 0 {
		m.Classes[1].MinCount = max(1, cfg.CloudSpot/4)
		m.Classes[1].MaxCount = 2 * cfg.CloudSpot
	}
	return m
}

// cloudFaults builds the serving fault processes: seeded spot
// interruption with a mean lifetime of four virtual hours. Seed 0 keeps
// the pool fault-free.
func cloudFaults(cfg Config) cloud.FaultConfig {
	if cfg.CloudSeed == 0 {
		return cloud.FaultConfig{}
	}
	return cloud.FaultConfig{Seed: cfg.CloudSeed, SpotMeanLifeSeconds: 14400}
}
