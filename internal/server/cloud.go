package server

import (
	"errors"
	"net/http"

	"raqo/internal/cloud"
	"raqo/internal/units"
)

// This file is the HTTP face of internal/cloud: POST /v1/cloud/submit
// runs one query through the elastic priced pool on its virtual clock, and
// GET /v1/cloud/stats reports (and optionally drains) the market. The
// state, the error mapping and the stats handler are the shared cluster's
// (arbiter.go).

// CloudSubmitRequest is the body of POST /v1/cloud/submit: one workload
// query for the priced elastic pool, decoded as SubmitRequest is (a
// "policy" field is unknown here, a 400), with the same member-name,
// value and null rules, the same 429 and 422 and, for Tenant and Query,
// the same domains, Tenant's taken from Config.CloudTenants. Every field
// is checked.
type CloudSubmitRequest struct {
	// Tenant is optional: "" selects "default"; an unknown one is a 400.
	Tenant string `json:"tenant,omitempty"`
	// Query is required: Q12, Q3, Q2 or All; absent, empty or any other
	// name is a 400.
	Query string `json:"query"`
	// Recovery is optional: what happens if the allocation is preempted
	// mid-run, "reoptimize", "ondemand" or "degrade" ("" selects
	// reoptimize). Any other is a 400, reported before a missing query.
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

func appendCloudSubmitResponse(dst []byte, r CloudSubmitResponse) ([]byte, bool) {
	o := openObject(dst, "  ")
	o.stringMember("tenant", r.Tenant)
	o.stringMember("query", r.Query)
	o.stringMember("recovery", r.Recovery)
	o.stringMember("class", r.Class)
	o.stringMember("tier", r.Tier)
	o.floatMember("arrivalSeconds", r.ArrivalSeconds)
	o.floatMember("startSeconds", r.StartSeconds)
	o.floatMember("finishSeconds", r.FinishSeconds)
	o.floatMember("queueSeconds", r.QueueSeconds)
	o.floatMember("execSeconds", r.ExecSeconds)
	o.intMember("preemptions", int64(r.Preemptions))
	o.intMember("oomRetries", int64(r.OOMRetries))
	o.boolMember("straggled", r.Straggled)
	o.boolMember("degraded", r.Degraded)
	o.boolMember("replanned", r.Replanned)
	o.intMember("containers", int64(r.Containers))
	o.floatMember("containerGB", r.ContainerGB)
	o.floatMember("billUSD", float64(r.BillUSD))
	return o.end()
}

// Cloud returns the server's cloud arbiter (primarily for tests).
// Callers must not use it concurrently with the HTTP handlers.
//
//raqolint:ignore locks test-only accessor; the doc contract forbids concurrent use
func (s *Server) Cloud() *cloud.Arbiter { return s.cld.arb }

func (s *Server) handleCloudSubmit(w http.ResponseWriter, r *http.Request) {
	var req CloudSubmitRequest
	if err := decodeSubmit(w, r, cloudSubmitMembers, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	rec, err := cloud.ParseRecovery(req.Recovery)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		WriteError(w, http.StatusBadRequest, errors.New("missing query"))
		return
	}

	s.cld.mu.Lock()
	out, err := s.cld.arb.SubmitWait(req.Tenant, req.Query, rec)
	s.cld.mu.Unlock()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeFixed(w, NewCloudSubmitResponse(out), appendCloudSubmitResponse)
}

func (s *Server) handleCloudStats(w http.ResponseWriter, r *http.Request) {
	serveStats(s.cld, w, r, func(e *cloud.Arbiter) { writeFixed(w, e.Stats(), appendCloudStats) })
}

// appendCloudStats appends WriteResult's bytes for st: nil slices are
// null, as encoding/json writes them.
func appendCloudStats(dst []byte, st cloud.Stats) ([]byte, bool) {
	o := openObject(dst, "  ")
	o.floatMember("now", st.Now)
	o.intMember("completed", int64(st.Completed))
	o.intMember("in_flight", int64(st.InFlight))
	o.intMember("queued", int64(st.Queued))
	o.intMember("submitted", st.Submitted)
	o.intMember("rejected", st.Rejected)
	o.intMember("lost", st.Lost)
	o.intMember("preemptions", st.Preemptions)
	o.intMember("storm_preemptions", st.StormPreemptions)
	o.intMember("oom_aborts", st.OOMAborts)
	o.intMember("stragglers", st.Stragglers)
	o.intMember("recovered_reoptimize", st.RecoveredReopt)
	o.intMember("recovered_ondemand", st.RecoveredOnDem)
	o.intMember("recovered_degrade", st.RecoveredDegrade)
	o.intMember("degrade_stalls", st.DegradeStalls)
	o.intMember("scale_ups", st.ScaleUps)
	o.intMember("scale_downs", st.ScaleDowns)
	o.intMember("capacity_containers", int64(st.Capacity))
	o.intMember("free_containers", int64(st.Free))
	o.floatMember("spend_usd", float64(st.SpendUSD))
	if o.arrayMember("classes", st.Classes == nil) {
		for i, c := range st.Classes {
			e := o.element(i)
			e.stringMember("name", c.Name)
			e.stringMember("tier", c.Tier)
			e.intMember("capacity", int64(c.Capacity))
			e.intMember("free", int64(c.Free))
			e.intMember("in_use", int64(c.InUse))
			e.intMember("pending", int64(c.Pending))
			e.floatMember("spend_usd", float64(c.SpendUSD))
			o.endElement(&e)
		}
		o.closeArray(len(st.Classes))
	}
	if o.arrayMember("tenants", st.Tenants == nil) {
		for i, t := range st.Tenants {
			e := o.element(i)
			e.stringMember("name", t.Name)
			e.floatMember("spent_usd", float64(t.SpentUSD))
			o.endElement(&e)
		}
		o.closeArray(len(st.Tenants))
	}
	return o.end()
}

// cloudMarket builds the serving market from the config knobs: a
// two-tier 10GB market, with the spot class made elastic when the
// autoscaler is on (floor a quarter of the configured spot count, ceiling
// double it) so scale events have room in both directions.
func cloudMarket(cfg Config) cloud.Market {
	m := cloud.DefaultMarket(cfg.CloudOnDemand, cfg.CloudSpot, cloudSpotDiscount)
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
