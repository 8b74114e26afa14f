package server

import (
	"raqo/internal/core"
	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/resource"
	"raqo/internal/telemetry"
)

// Metrics is the service's metric set over a telemetry.Registry. The HTTP
// fields are only populated by NewMetrics (the serving path);
// NewPlanningMetrics registers just the planner/cache families, which is
// what `raqo batch` prints as its one-line summary.
type Metrics struct {
	Registry *telemetry.Registry

	// Planner work.
	Plans    *telemetry.Counter // raqo_plans_considered_total
	ResIters *telemetry.Counter // raqo_resource_iterations_total

	// HTTP serving (nil under NewPlanningMetrics).
	Requests  *telemetry.CounterVec   // raqo_http_requests_total{endpoint}
	Responses *telemetry.CounterVec   // raqo_http_responses_total{code}
	Latency   *telemetry.HistogramVec // raqo_http_request_seconds{endpoint}
	InFlight  *telemetry.Gauge        // raqo_http_in_flight
	Queued    *telemetry.Gauge        // raqo_http_queued
	Rejected  *telemetry.Counter      // raqo_http_rejected_total
	Cancelled *telemetry.Counter      // raqo_http_cancelled_total
	MemoHits  *telemetry.Counter      // raqo_optimize_memo_hits_total

	// Feedback loop (nil under NewPlanningMetrics).
	FeedbackError    *telemetry.Histogram // raqo_feedback_rel_error
	FeedbackFallback *telemetry.Counter   // raqo_feedback_decode_fallback_total
	RecalDuration    *telemetry.Histogram // raqo_recalibration_seconds

	// History gather loop (nil under NewPlanningMetrics).
	GatherErrors *telemetry.Counter // raqo_history_gather_errors_total
}

// NewPlanningMetrics registers the planner-work counters only.
func NewPlanningMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Registry: reg,
		Plans:    reg.Counter("raqo_plans_considered_total", "Candidate sub-plans priced by the query planner."),
		ResIters: reg.Counter("raqo_resource_iterations_total", "Resource configurations explored by the resource planner."),
	}
}

// NewMetrics registers the full serving metric set.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := NewPlanningMetrics(reg)
	m.Requests = reg.CounterVec("raqo_http_requests_total", "HTTP requests received, by endpoint.", "endpoint")
	m.Responses = reg.CounterVec("raqo_http_responses_total", "HTTP responses sent, by status code.", "code")
	m.Latency = reg.HistogramVec("raqo_http_request_seconds", "HTTP request latency in seconds, by endpoint.", "endpoint", nil)
	m.InFlight = reg.Gauge("raqo_http_in_flight", "Requests currently holding an admission slot.")
	m.Queued = reg.Gauge("raqo_http_queued", "Requests waiting in the admission queue.")
	m.Rejected = reg.Counter("raqo_http_rejected_total", "Requests rejected with 429 by admission control.")
	m.Cancelled = reg.Counter("raqo_http_cancelled_total", "Requests abandoned by the client before completion.")
	m.MemoHits = reg.Counter("raqo_optimize_memo_hits_total",
		"/v1/optimize requests answered with the stored bytes of an earlier identical body under the live cost models (planner-work counters advance on misses only).")
	m.FeedbackError = reg.Histogram("raqo_feedback_rel_error",
		"Relative prediction error |predicted-observed|/observed of ingested feedback.",
		[]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	m.FeedbackFallback = reg.Counter("raqo_feedback_decode_fallback_total",
		"/v1/feedback bodies outside the canonical shape, decoded (or refused) by encoding/json instead of the feedback codec.")
	m.RecalDuration = reg.Histogram("raqo_recalibration_seconds",
		"Wall time of one online cost-model recalibration.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1})
	m.GatherErrors = reg.Counter("raqo_history_gather_errors_total",
		"Telemetry gather ticks that failed to commit to the history store.")
	return m
}

// ObserveDecision accumulates one decision's planner-work counters.
func (m *Metrics) ObserveDecision(d *core.Decision) {
	if d == nil {
		return
	}
	m.Plans.Add(int64(d.PlansConsidered))
	m.ResIters.Add(d.ResourceIterations)
}

// AttachCache exports the resource-plan cache's stats snapshot as
// func-backed metrics, read live at scrape time.
func (m *Metrics) AttachCache(c *resource.Cache) {
	if c == nil {
		return
	}
	reg := m.Registry
	reg.CounterFunc("raqo_resource_cache_hits_total", "Resource-plan cache hits (including singleflight-deduped loads).",
		func() float64 { return float64(c.Stats().Hits) })
	reg.CounterFunc("raqo_resource_cache_misses_total", "Resource-plan cache misses that ran the inner planner.",
		func() float64 { return float64(c.Stats().Misses) })
	reg.CounterFunc("raqo_resource_cache_deduped_total", "Concurrent misses coalesced onto an in-flight load.",
		func() float64 { return float64(c.Stats().Deduped) })
	reg.CounterFunc("raqo_resource_cache_evictions_total", "Cached configurations dropped by Reset.",
		func() float64 { return float64(c.Stats().Evictions) })
	reg.GaugeFunc("raqo_resource_cache_entries", "Configurations currently cached.",
		func() float64 { return float64(c.Stats().Entries) })
}

// AttachFeedback exports the feedback subsystem's state as func-backed
// metrics: live model version, observation volume, journal writes (journal
// may be nil), recalibration count and latest duration.
func (m *Metrics) AttachFeedback(rec *feedback.Recalibrator, journal *feedback.Journal) {
	if rec == nil {
		return
	}
	reg := m.Registry
	reg.GaugeFunc("raqo_model_version", "Version of the live cost-model set (1 = seed, +1 per recalibration).",
		func() float64 { return float64(rec.Current().Version) })
	reg.CounterFunc("raqo_feedback_observations_total", "Execution observations ever accepted into the feedback store.",
		func() float64 { return float64(rec.Store().Total()) })
	if journal != nil {
		reg.CounterFunc("raqo_feedback_journal_writes_total", "Writes that reached the feedback journal: one per accepted batch, one more where a batch crosses a rotation.",
			func() float64 { return float64(journal.Writes()) })
	}
	reg.GaugeFunc("raqo_feedback_store_entries", "Observations currently held in the feedback ring.",
		func() float64 { return float64(rec.Store().Len()) })
	reg.CounterFunc("raqo_recalibrations_total", "Completed online cost-model recalibrations.",
		func() float64 { return float64(rec.Recalibrations()) })
	reg.GaugeFunc("raqo_model_drifted", "1 when the drift detector currently reports drift, else 0.",
		func() float64 {
			if rec.Detector().Drifted() {
				return 1
			}
			return 0
		})
}

// AttachHistory exports the history store's shape as func-backed metrics,
// read live at scrape time. (These series are themselves gathered back
// into the store by the periodic telemetry sweep, so the store's growth
// is observable from its own history.)
func (m *Metrics) AttachHistory(st *history.Store) {
	if st == nil {
		return
	}
	reg := m.Registry
	reg.GaugeFunc("raqo_history_series", "Series registered in the history store.",
		func() float64 { return float64(st.Stats().Series) })
	reg.CounterFunc("raqo_history_points_total", "Points committed to the history store this process lifetime.",
		func() float64 { return float64(st.Stats().CommittedTotal) })
	reg.GaugeFunc("raqo_history_segments", "Sealed raw segment files currently on disk.",
		func() float64 { return float64(st.Stats().Segments) })
	reg.GaugeFunc("raqo_history_segment_bytes", "Bytes across raw segment files (sealed + active).",
		func() float64 { return float64(st.Stats().SegmentBytes) })
	reg.CounterFunc("raqo_history_retained_total", "Raw segments deleted by retention.",
		func() float64 { return float64(st.Stats().RetainedTotal) })
}

// AttachMemo exports the operator-cost memo's counters.
func (m *Metrics) AttachMemo(cm *core.CostMemo) {
	if cm == nil {
		return
	}
	reg := m.Registry
	reg.CounterFunc("raqo_cost_memo_hits_total", "Operator-cost memo hits.",
		func() float64 { return float64(cm.Hits()) })
	reg.CounterFunc("raqo_cost_memo_misses_total", "Operator-cost memo misses.",
		func() float64 { return float64(cm.Misses()) })
	reg.GaugeFunc("raqo_cost_memo_entries", "Operator costings currently memoized.",
		func() float64 { return float64(cm.Size()) })
}
