package cloud

import (
	"raqo/internal/telemetry"
	"raqo/internal/units"
)

// Metrics holds the cloud layer's telemetry instruments — the
// raqo_cloud_* families.
type Metrics struct {
	// Spend counts accrued capacity spend per instance class, in integer
	// microdollars (telemetry counters are int64-only).
	Spend *telemetry.CounterVec
	// TenantSpend counts allocation-attributed spend per tenant, in
	// microdollars.
	TenantSpend *telemetry.CounterVec
	// Admissions counts placed gangs by procurement tier.
	Admissions *telemetry.CounterVec
	// Rejections counts backpressure and infeasibility rejections and
	// queries that fail at their chosen resources: Stats' Rejected.
	Rejections *telemetry.Counter
	// Preemptions counts mid-run spot revocations per class.
	Preemptions *telemetry.CounterVec
	// OOMAborts counts mid-run out-of-memory kills.
	OOMAborts *telemetry.Counter
	// Stragglers counts straggler-slowed gangs.
	Stragglers *telemetry.Counter
	// Recoveries counts re-admissions of revoked work, by recovery policy.
	Recoveries *telemetry.CounterVec
	// ScaleEvents counts autoscaler actions by direction.
	ScaleEvents *telemetry.CounterVec
	// Capacity and InUse gauge the market's provisioned and held
	// containers across classes.
	Capacity *telemetry.Gauge
	InUse    *telemetry.Gauge
	// Lost gauges the accounting invariant (must stay zero): submissions
	// neither completed, running, queued, nor rejected.
	Lost *telemetry.Gauge
	// QueueWait observes virtual seconds from arrival to (each) admission.
	QueueWait *telemetry.Histogram
	// RecoveryWait observes virtual seconds from revocation to re-admission.
	RecoveryWait *telemetry.Histogram
}

// cloudWaitBuckets spans queue and recovery waits from instant re-admission
// to a pathological hour.
var cloudWaitBuckets = []float64{1, 5, 15, 60, 300, 900, 3600}

// NewMetrics registers the cloud metric families in a registry.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Spend: r.CounterVec("raqo_cloud_spend_microdollars_total",
			"Capacity spend accrued per instance class, in microdollars.", "class"),
		TenantSpend: r.CounterVec("raqo_cloud_tenant_spend_microdollars_total",
			"Allocation-attributed spend per tenant, in microdollars.", "tenant"),
		Admissions: r.CounterVec("raqo_cloud_admissions_total",
			"Gangs placed onto the market, by procurement tier.", "tier"),
		Rejections: r.Counter("raqo_cloud_rejections_total",
			"Submissions rejected by backpressure or infeasibility, or failed at their chosen resources."),
		Preemptions: r.CounterVec("raqo_cloud_preemptions_total",
			"Mid-run spot revocations, by instance class.", "class"),
		OOMAborts: r.Counter("raqo_cloud_oom_aborts_total",
			"Mid-run out-of-memory kills of running gangs."),
		Stragglers: r.Counter("raqo_cloud_stragglers_total",
			"Admitted gangs slowed by the straggler process."),
		Recoveries: r.CounterVec("raqo_cloud_recoveries_total",
			"Re-admissions of revoked queries, by recovery policy.", "policy"),
		ScaleEvents: r.CounterVec("raqo_cloud_scale_events_total",
			"Autoscaler actions, by direction.", "direction"),
		Capacity: r.Gauge("raqo_cloud_capacity_containers",
			"Containers currently provisioned across all instance classes."),
		InUse: r.Gauge("raqo_cloud_containers_in_use",
			"Containers currently held by running gangs across all classes."),
		Lost: r.Gauge("raqo_cloud_lost_queries",
			"Accounting invariant: submissions neither completed, running, queued, nor rejected. Must be zero."),
		QueueWait: r.Histogram("raqo_cloud_queue_wait_virtual_seconds",
			"Virtual seconds from arrival to admission (per admission attempt).", cloudWaitBuckets),
		RecoveryWait: r.Histogram("raqo_cloud_recovery_wait_virtual_seconds",
			"Virtual seconds from revocation to re-admission.", cloudWaitBuckets),
	}
}

// spendMeter exports one accruing dollar total — a class's or a tenant's
// spend — as a monotone counter: only the microdollars not yet exported
// are added. The counter is resolved at the first positive delta, so a
// series appears once it has spent something.
type spendMeter struct {
	vec  *telemetry.CounterVec
	key  string
	c    *telemetry.Counter
	seen int64 // microdollars exported so far
}

func (s *spendMeter) observe(total units.USD) {
	micro := total.Microdollars()
	if delta := micro - s.seen; delta > 0 {
		if s.c == nil {
			s.c = s.vec.With(s.key)
		}
		s.c.Add(delta)
		s.seen = micro
	}
}

// tierLabel maps a tier to a bounded metric label (the raqolint telemetry
// rule requires constant label cardinality).
func tierLabel(t Tier) string {
	switch t {
	case OnDemand:
		return "ondemand"
	case Spot:
		return "spot"
	}
	return "unknown"
}

// recoveryLabel maps a recovery policy to a bounded metric label.
func recoveryLabel(r Recovery) string {
	switch r {
	case RecoverReoptimize:
		return "reoptimize"
	case RecoverOnDemand:
		return "ondemand"
	case RecoverDegrade:
		return "degrade"
	}
	return "unknown"
}
