// Package arbiter closes the loop the paper's Section VIII leaves open:
// the optimizer interacting with the cluster's scheduler continuously, at
// workload scale. A discrete-event, virtual-clock arbiter admits a stream
// of queries from multiple tenants onto one shared container pool. Each
// query arrives with a joint plan fixed at submission time (optimized
// under the full cluster conditions — the Figure 1 pathology) and a
// policy for the moment the cluster cannot satisfy it: Wait for the
// requested gang to free up, Degrade onto what is free, or Reoptimize
// under the currently free conditions. Fair-share weights divide the pool
// between tenants; completions feed the execution-feedback recalibrator
// mid-workload.
//
// The shared cluster is the one-class, unpriced, fault-free case of the
// admission engine in internal/cloud: one class of Capacity containers of
// Base.MaxContainerGB at price 0, with no faults and no autoscaler. This
// package adds only what the market has no use for — execution feedback,
// history and recalibration — and its own outcome, stats and metric shapes.
// Everything runs on the virtual clock (enforced by the raqolint `clock`
// rule) and the event loop is single-threaded, so a given arrival stream
// produces bit-identical outcomes across runs.
package arbiter

import (
	"fmt"

	"raqo/internal/cloud"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/scheduler"
)

// TenantConfig describes one tenant sharing the cluster.
type TenantConfig = cloud.TenantConfig

// Config assembles an Arbiter.
type Config struct {
	cloud.Workload
	// Capacity is the shared pool's container count.
	Capacity int
	// Feedback, when set, receives every completion at its virtual finish
	// time — the online-ingestion channel into model recalibration.
	Feedback *feedback.Observer
	// History, when set, receives per-completion queue and execution times
	// (series "arbiter.queue_seconds.<tenant>" and
	// "arbiter.exec_seconds.<tenant>") stamped with the virtual finish
	// time, so days-long simulated workloads build days of durable history
	// deterministically. The caller owns committing the recorder.
	History feedback.Recorder
	// RecalEvery asks the feedback recalibrator to check for drift every
	// N completions (0 disables). Wire Recal.OnSwap to Optimizer.SetModels
	// so re-optimizations see the recalibrated models.
	RecalEvery int
	// Metrics, when set, records admissions, rejections, queue waits and
	// pool occupancy.
	Metrics *Metrics
}

// Arrival is one query submission in a workload stream.
type Arrival struct {
	Tenant string
	Query  string
	// Time is the virtual arrival time in seconds.
	Time   float64
	Policy scheduler.Policy
}

// Arrivals gives every arrival of a generated trace one policy, so policy
// runs compare on an identical stream.
func Arrivals(trace []cloud.Arrival, policy scheduler.Policy) []Arrival {
	out := make([]Arrival, len(trace))
	for i, arr := range trace {
		out[i] = Arrival{Tenant: arr.Tenant, Query: arr.Query, Time: arr.Time, Policy: policy}
	}
	return out
}

// Outcome records how one admitted query fared.
type Outcome struct {
	Tenant string
	Query  string
	Policy scheduler.Policy
	// Arrival, Start and Finish are virtual times in seconds.
	Arrival float64
	Start   float64
	Finish  float64
	// QueueSeconds is Start - Arrival; ExecSeconds the simulated run time.
	QueueSeconds float64
	ExecSeconds  float64
	// Replanned is true when Reoptimize produced a different joint plan
	// than the submitted one; Degraded when the request was clamped.
	Replanned bool
	Degraded  bool
	// Containers and ContainerGB are the gang the query held.
	Containers  int
	ContainerGB float64
}

// outcome is the shared-cluster view of an engine outcome.
func outcome(o *cloud.Outcome) Outcome {
	return Outcome{
		Tenant:       o.Tenant,
		Query:        o.Query,
		Policy:       o.Policy,
		Arrival:      o.Arrival,
		Start:        o.Start,
		Finish:       o.Finish,
		QueueSeconds: o.Start - o.Arrival,
		ExecSeconds:  o.ExecSeconds,
		Replanned:    o.Replanned,
		Degraded:     o.Degraded,
		Containers:   o.Containers,
		ContainerGB:  o.ContainerGB,
	}
}

// Ratio is the queue-time/run-time ratio of the paper's Figure 1.
func (o *Outcome) Ratio() float64 {
	if o.ExecSeconds <= 0 {
		return 0
	}
	return o.QueueSeconds / o.ExecSeconds
}

// Stats is a point-in-time summary of the arbiter, and the body of the
// server's GET /v1/arbiter/stats.
type Stats struct {
	Now            float64 `json:"nowSeconds"`
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

// Arbiter is the workload arbiter. It is not safe for concurrent use; the
// HTTP layer serializes access with a mutex.
type Arbiter struct {
	cfg Config
	e   *cloud.Arbiter
	// completed holds Run's outcomes, and only Run's: the online path
	// (SubmitWait) keeps none, so a long-lived server does not accumulate
	// one per submission.
	completed  []Outcome
	running    bool
	sinceRecal int
	recals     int64
}

// New validates the configuration and builds an idle arbiter.
func New(cfg Config) (*Arbiter, error) {
	a := &Arbiter{cfg: cfg}
	hooks := cloud.Hooks{Name: "arbiter", Completed: a.complete}
	if m := cfg.Metrics; m != nil {
		hooks.Admitted = func(o *cloud.Outcome) {
			m.Admissions.With(policyLabel(o.Policy)).Inc()
			m.QueueWait.Observe(o.QueueSeconds)
			m.Occupancy.Set(int64(a.e.Pool().InUse()))
		}
		hooks.Rejected = m.Rejections.Inc
	}
	e, err := cloud.New(cloud.Config{
		Workload: cfg.Workload,
		Market: cloud.Market{Classes: []cloud.InstanceClass{{
			Name: "cluster", ContainerGB: cfg.Base.MaxContainerGB, Count: cfg.Capacity,
		}}},
		Hooks: hooks,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Capacity < cfg.Base.MinContainers {
		return nil, fmt.Errorf("arbiter: capacity %d below minimum allocation %d", cfg.Capacity, cfg.Base.MinContainers)
	}
	a.e = e
	return a, nil
}

// Now returns the arbiter's virtual clock.
func (a *Arbiter) Now() float64 { return a.e.Now() }

// Completed returns the outcomes Run recorded, in completion order.
// Completions of SubmitWait submissions are not recorded.
func (a *Arbiter) Completed() []Outcome { return a.completed }

// Stats summarizes the arbiter's current state.
func (a *Arbiter) Stats() Stats {
	st, n := a.e.Stats(), a.e.Counts()
	return Stats{
		Now:            st.Now,
		Completed:      st.Completed,
		InFlight:       st.InFlight,
		Queued:         st.Queued,
		Rejected:       n.Shed + n.Dropped,
		Failed:         n.Failed,
		AdmittedWait:   n.Admitted[scheduler.Wait],
		AdmittedDeg:    n.Admitted[scheduler.Degrade],
		AdmittedReopt:  n.Admitted[scheduler.Reoptimize],
		Replanned:      n.Replanned,
		Degraded:       n.Degraded,
		DegradeStalls:  n.DegradeStalls,
		Recals:         a.recals,
		FreeContainers: st.Free,
		HeldGB:         a.e.Pool().HeldGB(),
		ReoptFull:      n.ReoptFull,
		ReoptExact:     n.ReoptExact,
	}
}

// Run replays a whole arrival stream to completion and returns the
// outcomes in completion order. Backpressure rejections are counted, not
// fatal. The stream is sorted by arrival time (stable, so tied arrivals
// keep their input order).
func (a *Arbiter) Run(arrivals []Arrival) ([]Outcome, error) {
	trace := make([]cloud.Arrival, len(arrivals))
	policies := make([]scheduler.Policy, len(arrivals))
	for i, arr := range arrivals {
		trace[i] = cloud.Arrival{Tenant: arr.Tenant, Query: arr.Query, Time: arr.Time}
		policies[i] = arr.Policy
	}
	a.running = true
	err := a.e.RunWith(trace, policies)
	a.running = false
	if err != nil {
		return nil, err
	}
	return a.completed, nil
}

// SubmitWait submits one query at the current virtual time and advances
// the clock just far enough to admit it, returning its outcome (whose
// Finish lies in the virtual future — the gang stays held, so later
// submissions contend with it). This is the online path behind
// POST /v1/submit. Unknown names are cloud.UnknownErrors; a Wait request
// larger than the cluster and a query that can never be admitted wrap
// cloud.ErrRejected.
func (a *Arbiter) SubmitWait(tenant, query string, policy scheduler.Policy) (*Outcome, error) {
	o, err := a.e.SubmitWaitWith(cloud.Arrival{Tenant: tenant, Query: query, Time: a.e.Now()}, policy)
	if err != nil {
		return nil, err
	}
	out := outcome(o)
	return &out, nil
}

// Drain advances the virtual clock past every outstanding finish,
// admitting queued queries as capacity frees. Queries still queued on a
// fully idle pool are infeasible and are rejected.
func (a *Arbiter) Drain() error { return a.e.Drain() }

// complete records one completion, reports it to the history recorder
// and the feedback observer, and periodically offers the recalibrator a
// drift check. Everything is stamped with the virtual finish time.
func (a *Arbiter) complete(o *cloud.Outcome, d *core.Decision, res *execsim.Result) error {
	out := outcome(o)
	if a.running {
		a.completed = append(a.completed, out)
	}
	if m := a.cfg.Metrics; m != nil {
		m.Occupancy.Set(int64(a.e.Pool().InUse()))
	}
	at := int64(out.Finish)
	if h := a.cfg.History; h != nil {
		h.Record("arbiter.queue_seconds."+out.Tenant, at, out.QueueSeconds)
		h.Record("arbiter.exec_seconds."+out.Tenant, at, out.ExecSeconds)
	}
	ob := a.cfg.Feedback
	if ob == nil {
		return nil
	}
	predicted, money := d.Time, d.Money
	if predicted <= 0 {
		// Degraded plans carry no planner prediction; price them with the
		// live models so the recorded error measures the model in charge.
		v, err := ob.Recal.Models().PlanVector(d.Plan, cost.DefaultPricing())
		if err != nil {
			return nil // unpriceable plan: skip
		}
		predicted, money = v.Time, v.Money
	}
	// Best-effort: a rejected observation is dropped, not fatal.
	_, _ = ob.RecordAt(at, cloud.Engine().Name, d.Plan, predicted, money, res)
	a.sinceRecal++
	if a.cfg.RecalEvery > 0 && a.sinceRecal >= a.cfg.RecalEvery {
		a.sinceRecal = 0
		if _, swapped, err := ob.Recal.MaybeRecalibrate(); err != nil {
			return fmt.Errorf("arbiter: recalibration: %w", err)
		} else if swapped {
			a.recals++
		}
	}
	return nil
}
