// Package arbiter closes the loop the paper's Section VIII leaves open:
// the optimizer interacting with the cluster's scheduler continuously, at
// workload scale. A discrete-event, virtual-clock arbiter admits a stream
// of queries from multiple tenants onto one shared container pool. Each
// query arrives with a joint plan fixed at submission time (optimized
// under the full cluster conditions — the Figure 1 pathology) and a
// policy for the moment the cluster cannot satisfy it: Wait for the
// requested gang to free up, Degrade onto what is free, or Reoptimize
// under the currently free conditions. Fair-share weights and per-tenant
// max-in-flight/queue-depth caps provide backpressure; completions feed
// the execution-feedback recalibrator mid-workload.
//
// Everything runs on the cluster.Pool virtual clock — no wall-clock reads
// (enforced by the raqolint `clock` rule) — and the event loop is single-
// threaded, so a given arrival stream produces bit-identical outcomes
// across runs.
package arbiter

import (
	"errors"
	"fmt"
	"sort"

	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/units"
)

// TenantConfig describes one tenant sharing the cluster.
type TenantConfig struct {
	Name string
	// Weight is the tenant's fair-share weight; <= 0 means 1. A tenant's
	// guaranteed share is Weight/ΣWeights of the pool's containers; free
	// capacity beyond the guarantee is handed out work-conservingly.
	Weight float64
	// MaxInFlight caps the tenant's concurrently running queries
	// (admission backpressure); <= 0 means unlimited.
	MaxInFlight int
	// MaxQueue caps the tenant's waiting queries; a submission beyond it
	// is rejected (load shedding); <= 0 means unlimited.
	MaxQueue int
}

// Config assembles an Arbiter.
type Config struct {
	// Capacity is the shared pool's container count.
	Capacity int
	// Base is the full cluster conditions submission-time plans are
	// optimized under; admission-time conditions are Base with the
	// container axis capped at the pool's free count.
	Base    cluster.Conditions
	Engine  execsim.Params
	Pricing cost.Pricing
	// Optimizer plans submissions and re-optimizations. All planning is
	// routed through the arbiter's own core.Incremental wrapper, which
	// passes the conditions per call — so the optimizer may be shared with
	// other callers — and answers conditions it has planned before under
	// the live models from its exact memo.
	Optimizer *core.Optimizer
	// Queries resolves arrival query names to logical queries.
	Queries map[string]*plan.Query
	Tenants []TenantConfig
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

// Ratio is the queue-time/run-time ratio of the paper's Figure 1.
func (o *Outcome) Ratio() float64 {
	if o.ExecSeconds <= 0 {
		return 0
	}
	return o.QueueSeconds / o.ExecSeconds
}

// Stats is a point-in-time summary of the arbiter.
type Stats struct {
	Now            float64
	Completed      int
	InFlight       int
	Queued         int
	Rejected       int64
	Failed         int64
	AdmittedWait   int64
	AdmittedDeg    int64
	AdmittedReopt  int64
	Replanned      int64
	Degraded       int64
	DegradeStalls  int64
	Recals         int64
	FreeContainers int
	HeldGB         float64
	// Planning answer sources (see core.IncrementalStats), submissions and
	// re-optimizations alike: planned from scratch, or answered from the
	// exact-conditions memo.
	ReoptFull  int64
	ReoptExact int64
	// ReoptPatched is always zero: the patch path it counted is gone, and
	// the field stays only because the benchmark (bench/layers.go) reads it.
	ReoptPatched int64
}

// ErrRejected wraps every backpressure rejection (queue full, request
// larger than the cluster, infeasible at full drain).
var ErrRejected = errors.New("arbiter: submission rejected")

// UnknownError reports a submission naming an unknown tenant, query or
// policy — a validation failure, not backpressure. The HTTP layer maps it
// to 400 where ErrRejected maps to 429.
type UnknownError struct {
	Kind string // "tenant", "query" or "policy"
	Name string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("arbiter: unknown %s %q", e.Kind, e.Name)
}

type pending struct {
	arr Arrival
	q   *plan.Query
	dec *core.Decision // joint plan fixed at submission (Base conditions)
	// admitted is set when the pending is admitted, for online callers;
	// failed when its plan could not execute at the chosen resources.
	admitted *Outcome
	failed   bool
}

type running struct {
	out              Outcome
	root             *plan.Node
	predictedSeconds float64
	predictedMoney   units.Dollars
	res              *execsim.Result
}

type tenantState struct {
	cfg     TenantConfig
	queue   []*pending
	running int
	held    int // containers currently allocated to this tenant
}

// Arbiter is the workload arbiter. It is not safe for concurrent use; the
// HTTP layer serializes access with a mutex.
type Arbiter struct {
	cfg         Config
	pool        *cluster.Pool
	reopt       *core.Incremental // all planning routes through this wrapper
	tenants     []*tenantState    // config order — the deterministic scan order
	byName      map[string]*tenantState
	inflight    map[int64]*running // by pool allocation token; never ranged
	completed   []Outcome
	totalWeight float64
	sinceRecal  int
	joinBuf     []*plan.Node // reused by admitDegraded's clamp walk

	rejected      int64
	failed        int64
	admitted      [3]int64 // by scheduler.Policy
	replanned     int64
	degraded      int64
	degradeStalls int64
	recals        int64
}

// New validates the configuration and builds an idle arbiter.
func New(cfg Config) (*Arbiter, error) {
	if err := cfg.Base.Validate(); err != nil {
		return nil, fmt.Errorf("arbiter: base conditions: %w", err)
	}
	if cfg.Capacity < cfg.Base.MinContainers {
		return nil, fmt.Errorf("arbiter: capacity %d below minimum allocation %d", cfg.Capacity, cfg.Base.MinContainers)
	}
	if cfg.Optimizer == nil {
		return nil, fmt.Errorf("arbiter: optimizer required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("arbiter: at least one tenant required")
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("arbiter: no queries registered")
	}
	pool, err := cluster.NewPool(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	a := &Arbiter{
		cfg:      cfg,
		pool:     pool,
		reopt:    core.NewIncremental(cfg.Optimizer),
		byName:   make(map[string]*tenantState, len(cfg.Tenants)),
		inflight: make(map[int64]*running),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("arbiter: tenant with empty name")
		}
		if _, dup := a.byName[tc.Name]; dup {
			return nil, fmt.Errorf("arbiter: duplicate tenant %q", tc.Name)
		}
		if tc.Weight <= 0 {
			tc.Weight = 1
		}
		ts := &tenantState{cfg: tc}
		a.tenants = append(a.tenants, ts)
		a.byName[tc.Name] = ts
		a.totalWeight += tc.Weight
	}
	return a, nil
}

// Now returns the arbiter's virtual clock.
func (a *Arbiter) Now() float64 { return a.pool.Now() }

// Completed returns the outcomes recorded so far, in completion order.
func (a *Arbiter) Completed() []Outcome { return a.completed }

// Stats summarizes the arbiter's current state.
func (a *Arbiter) Stats() Stats {
	queued := 0
	for _, ts := range a.tenants {
		queued += len(ts.queue)
	}
	ist := a.reopt.Stats()
	return Stats{
		Now:            a.pool.Now(),
		Completed:      len(a.completed),
		InFlight:       len(a.inflight),
		Queued:         queued,
		Rejected:       a.rejected,
		Failed:         a.failed,
		AdmittedWait:   a.admitted[scheduler.Wait],
		AdmittedDeg:    a.admitted[scheduler.Degrade],
		AdmittedReopt:  a.admitted[scheduler.Reoptimize],
		Replanned:      a.replanned,
		Degraded:       a.degraded,
		DegradeStalls:  a.degradeStalls,
		Recals:         a.recals,
		FreeContainers: a.pool.Free(),
		HeldGB:         a.pool.HeldGB(),
		ReoptFull:      ist.Full,
		ReoptExact:     ist.Exact,
	}
}

// reject counts one rejection and wraps ErrRejected.
func (a *Arbiter) reject(format string, args ...interface{}) error {
	a.rejected++
	if a.cfg.Metrics != nil {
		a.cfg.Metrics.Rejections.Inc()
	}
	return fmt.Errorf("%w: %s", ErrRejected, fmt.Sprintf(format, args...))
}

// Submit enqueues one arrival. Arrival times before the virtual now are
// clamped (online callers submit "at now"). Rejections — unknown names
// are errors; full tenant queues and Wait-policy requests larger than the
// cluster wrap ErrRejected.
func (a *Arbiter) Submit(arr Arrival) error {
	ts, ok := a.byName[arr.Tenant]
	if !ok {
		return &UnknownError{Kind: "tenant", Name: arr.Tenant}
	}
	q, ok := a.cfg.Queries[arr.Query]
	if !ok {
		return &UnknownError{Kind: "query", Name: arr.Query}
	}
	if arr.Policy != scheduler.Wait && arr.Policy != scheduler.Degrade && arr.Policy != scheduler.Reoptimize {
		return &UnknownError{Kind: "policy", Name: arr.Policy.String()}
	}
	if arr.Time < a.pool.Now() {
		arr.Time = a.pool.Now()
	}
	if ts.cfg.MaxQueue > 0 && len(ts.queue) >= ts.cfg.MaxQueue {
		return a.reject("tenant %s queue full (%d)", arr.Tenant, ts.cfg.MaxQueue)
	}
	// The plan a client fixes at submission time is optimized under the
	// full Base conditions; after a query's first submission the memo
	// answers, per live model set.
	dec, _, err := a.reopt.Optimize(q, a.cfg.Base)
	if err != nil {
		return err
	}
	if arr.Policy == scheduler.Wait {
		// A Wait request larger than the whole pool would queue forever.
		gang := scheduler.MaxRequested(dec.Plan)
		if gang.Containers > a.maxAdmissible() {
			return a.reject("query %s requests %d containers, cluster admits at most %d",
				arr.Query, gang.Containers, a.maxAdmissible())
		}
	}
	ts.queue = append(ts.queue, &pending{arr: arr, q: q, dec: dec})
	return nil
}

// maxAdmissible is the largest gang the pool can ever offer.
func (a *Arbiter) maxAdmissible() int {
	if a.cfg.Base.MaxContainers < a.cfg.Capacity {
		return a.cfg.Base.MaxContainers
	}
	return a.cfg.Capacity
}

// condFor derives the conditions the pool can offer tenant ts right now.
// Under fairShare the container axis is additionally capped by the
// tenant's unused guaranteed share.
func (a *Arbiter) condFor(ts *tenantState, fairShare bool) (cluster.Conditions, bool) {
	cond, ok := a.pool.Conditions(a.cfg.Base)
	if !ok {
		return cluster.Conditions{}, false
	}
	if fairShare {
		share := int(ts.cfg.Weight / a.totalWeight * float64(a.cfg.Capacity))
		headroom := share - ts.held
		if headroom < cond.MaxContainers {
			cond.MaxContainers = headroom
		}
		if cond.MaxContainers < cond.MinContainers {
			return cluster.Conditions{}, false
		}
	}
	return cond, true
}

// advanceTo moves the virtual clock, releasing finished gangs in
// deterministic order, recording their outcomes and feeding the feedback
// recalibrator.
func (a *Arbiter) advanceTo(t float64) error {
	for _, rel := range a.pool.Advance(t) {
		run, ok := a.inflight[rel.Token]
		if !ok {
			return fmt.Errorf("arbiter: released unknown allocation %d", rel.Token)
		}
		delete(a.inflight, rel.Token)
		ts := a.byName[run.out.Tenant]
		ts.running--
		ts.held -= rel.Containers
		a.completed = append(a.completed, run.out)
		if err := a.recordFeedback(run); err != nil {
			return err
		}
	}
	a.observePool()
	return nil
}

// recordFeedback reports one completion to the history recorder and the
// feedback observer, and periodically offers the recalibrator a drift
// check. Everything is stamped with the virtual finish time.
func (a *Arbiter) recordFeedback(run *running) error {
	at := int64(run.out.Finish)
	if h := a.cfg.History; h != nil {
		h.Record("arbiter.queue_seconds."+run.out.Tenant, at, run.out.QueueSeconds)
		h.Record("arbiter.exec_seconds."+run.out.Tenant, at, run.out.ExecSeconds)
	}
	ob := a.cfg.Feedback
	if ob == nil {
		return nil
	}
	predicted, money := run.predictedSeconds, run.predictedMoney
	if predicted <= 0 {
		// Degraded plans carry no planner prediction; price them with the
		// live models so the recorded error measures the model in charge.
		v, err := ob.Recal.Models().PlanVector(run.root, a.cfg.Pricing)
		if err != nil {
			return nil // unpriceable plan: skip, like scheduler.record
		}
		predicted, money = v.Time, v.Money
	}
	// Best-effort, like the one-shot scheduler: a rejected observation is
	// dropped, not fatal.
	_, _ = ob.RecordAt(at, a.cfg.Engine.Name, run.root, predicted, money, run.res)
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

// observePool updates the occupancy metrics.
func (a *Arbiter) observePool() {
	if a.cfg.Metrics == nil {
		return
	}
	a.cfg.Metrics.Occupancy.Set(int64(a.pool.InUse()))
}

// admit starts pending p (tenant ts's queue head) with joint plan d:
// simulate execution, hold the gang until its virtual finish, record the
// outcome.
func (a *Arbiter) admit(ts *tenantState, p *pending, d *core.Decision, replanned, degraded bool) error {
	res, err := a.cfg.Engine.Execute(d.Plan, a.cfg.Pricing)
	if err != nil {
		var oom *execsim.OOMError
		if errors.As(err, &oom) {
			// The chosen plan cannot execute (a mispredicted broadcast
			// build side): fail this query deterministically instead of
			// aborting the whole workload.
			ts.queue = ts.queue[1:]
			p.failed = true
			a.failed++
			return nil
		}
		return fmt.Errorf("arbiter: executing %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
	}
	gang := scheduler.MaxRequested(d.Plan)
	if gang.Containers < 1 {
		gang.Containers = 1
	}
	now := a.pool.Now()
	tok, err := a.pool.Allocate(gang.Containers, gang.ContainerGB, now+res.Seconds)
	if err != nil {
		return fmt.Errorf("arbiter: %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
	}
	ts.queue = ts.queue[1:]
	ts.running++
	ts.held += gang.Containers
	out := Outcome{
		Tenant:       p.arr.Tenant,
		Query:        p.arr.Query,
		Policy:       p.arr.Policy,
		Arrival:      p.arr.Time,
		Start:        now,
		Finish:       now + res.Seconds,
		QueueSeconds: now - p.arr.Time,
		ExecSeconds:  res.Seconds,
		Replanned:    replanned,
		Degraded:     degraded,
		Containers:   gang.Containers,
		ContainerGB:  gang.ContainerGB,
	}
	p.admitted = &out
	a.inflight[tok] = &running{
		out:              out,
		root:             d.Plan,
		predictedSeconds: d.Time,
		predictedMoney:   d.Money,
		res:              res,
	}
	a.admitted[p.arr.Policy]++
	if replanned {
		a.replanned++
	}
	if degraded {
		a.degraded++
	}
	if m := a.cfg.Metrics; m != nil {
		m.Admissions.With(policyLabel(p.arr.Policy)).Inc()
		m.QueueWait.Observe(out.QueueSeconds)
	}
	a.observePool()
	return nil
}

// admitDegraded clamps a copy of the submitted plan onto cond and admits
// it. When even the clamped plan cannot execute (broadcast build side no
// longer fits the shrunken containers), the query stays queued for the
// next event.
func (a *Arbiter) admitDegraded(ts *tenantState, p *pending, cond cluster.Conditions) (bool, error) {
	clamped, buf := scheduler.ClampClone(p.dec.Plan, cond, a.joinBuf)
	a.joinBuf = buf
	if _, err := a.cfg.Engine.Execute(clamped, a.cfg.Pricing); err != nil {
		var oom *execsim.OOMError
		if errors.As(err, &oom) {
			a.degradeStalls++
			return false, nil
		}
		return false, err
	}
	// Degraded plans carry no planner prediction (Time 0 triggers the
	// live-model pricing fallback at completion).
	if err := a.admit(ts, p, &core.Decision{Plan: clamped}, false, true); err != nil {
		return false, err
	}
	return true, nil
}

type replanItem struct {
	ts   *tenantState
	p    *pending
	cond cluster.Conditions
}

// replanBatch re-optimizes every stashed queue head under its stash-time
// conditions — repeated conditions answer from the exact memo, only new
// ones pay a full joint optimization — then admits the new plans in stash
// order while they still fit the shrinking pool.
func (a *Arbiter) replanBatch(stash []replanItem, fairShare bool) (bool, error) {
	admittedAny := false
	for _, it := range stash {
		d, _, err := a.reopt.Optimize(it.p.q, it.cond)
		if err != nil {
			return false, fmt.Errorf("arbiter: re-optimizing %s/%s: %w", it.p.arr.Tenant, it.p.arr.Query, err)
		}
		// Earlier admissions in this pass shrank the pool: recheck before
		// holding the gang. A plan that no longer fits retries next event.
		cond, ok := a.condFor(it.ts, fairShare)
		if !ok || !scheduler.Fits(d.Plan, cond) {
			continue
		}
		if err := a.admit(it.ts, it.p, d, !d.Plan.Equal(it.p.dec.Plan), false); err != nil {
			return false, err
		}
		admittedAny = true
	}
	return admittedAny, nil
}

// admitRound makes one admission pass over the tenants in config order.
// Under fairShare each tenant sees only its unused guaranteed share; the
// elastic round hands out all remaining free capacity work-conservingly.
// Admission is FIFO per tenant: a blocked head blocks the queue behind it.
func (a *Arbiter) admitRound(fairShare bool) (bool, error) {
	progress := false
	var stash []replanItem
	for _, ts := range a.tenants {
	tenant:
		for len(ts.queue) > 0 {
			if ts.cfg.MaxInFlight > 0 && ts.running >= ts.cfg.MaxInFlight {
				break
			}
			cond, ok := a.condFor(ts, fairShare)
			if !ok {
				break
			}
			p := ts.queue[0]
			if scheduler.Fits(p.dec.Plan, cond) {
				if err := a.admit(ts, p, p.dec, false, false); err != nil {
					return false, err
				}
				progress = true
				continue
			}
			switch p.arr.Policy {
			case scheduler.Degrade:
				admitted, err := a.admitDegraded(ts, p, cond)
				if err != nil {
					return false, err
				}
				if !admitted {
					break tenant
				}
				progress = true
			case scheduler.Reoptimize:
				stash = append(stash, replanItem{ts: ts, p: p, cond: cond})
				break tenant
			default: // Wait: the head queues until its gang frees up.
				break tenant
			}
		}
	}
	if len(stash) > 0 {
		admitted, err := a.replanBatch(stash, fairShare)
		if err != nil {
			return false, err
		}
		progress = progress || admitted
	}
	return progress, nil
}

// tryAdmit runs admission rounds — guaranteed share first, then elastic —
// until a full cycle admits nothing.
func (a *Arbiter) tryAdmit() error {
	for {
		p1, err := a.admitRound(true)
		if err != nil {
			return err
		}
		p2, err := a.admitRound(false)
		if err != nil {
			return err
		}
		if !p1 && !p2 {
			return nil
		}
	}
}

// queuedCount sums the tenant queues.
func (a *Arbiter) queuedCount() int {
	n := 0
	for _, ts := range a.tenants {
		n += len(ts.queue)
	}
	return n
}

// Run replays a whole arrival stream to completion and returns the
// outcomes in completion order. Backpressure rejections are counted, not
// fatal. The stream is sorted by arrival time (stable, so tied arrivals
// keep their input order).
func (a *Arbiter) Run(arrivals []Arrival) ([]Outcome, error) {
	ordered := append([]Arrival(nil), arrivals...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Time < ordered[j].Time })
	next := 0
	for {
		arrT := -1.0
		if next < len(ordered) {
			arrT = ordered[next].Time
		}
		finT, hasFin := a.pool.NextFinish()
		if arrT < 0 && !hasFin {
			if n := a.queuedCount(); n > 0 {
				return nil, fmt.Errorf("arbiter: deadlock with %d queued queries", n)
			}
			break
		}
		var te float64
		if arrT >= 0 && (!hasFin || arrT <= finT) {
			te = arrT
		} else {
			te = finT
		}
		if err := a.advanceTo(te); err != nil {
			return nil, err
		}
		for next < len(ordered) && ordered[next].Time <= te {
			if err := a.Submit(ordered[next]); err != nil && !errors.Is(err, ErrRejected) {
				return nil, err
			}
			next++
		}
		if err := a.tryAdmit(); err != nil {
			return nil, err
		}
	}
	return a.completed, nil
}

// SubmitWait submits one query at the current virtual time and advances
// the clock just far enough to admit it, returning its outcome (whose
// Finish lies in the virtual future — the gang stays held, so later
// submissions contend with it). This is the online path behind
// POST /v1/submit.
func (a *Arbiter) SubmitWait(tenant, query string, policy scheduler.Policy) (*Outcome, error) {
	arr := Arrival{Tenant: tenant, Query: query, Time: a.pool.Now(), Policy: policy}
	if err := a.Submit(arr); err != nil {
		return nil, err
	}
	ts := a.byName[tenant]
	p := ts.queue[len(ts.queue)-1]
	for {
		if err := a.tryAdmit(); err != nil {
			return nil, err
		}
		if p.admitted != nil {
			return p.admitted, nil
		}
		if p.failed {
			return nil, fmt.Errorf("arbiter: query %s/%s failed to execute at its chosen resources", tenant, query)
		}
		finT, ok := a.pool.NextFinish()
		if !ok {
			// Fully drained and still not admissible: it never will be.
			a.dequeue(ts, p)
			return nil, a.reject("query %s/%s cannot be admitted even on an idle cluster", tenant, query)
		}
		if err := a.advanceTo(finT); err != nil {
			return nil, err
		}
	}
}

// dequeue removes a pending from its tenant's queue.
func (a *Arbiter) dequeue(ts *tenantState, p *pending) {
	for i, q := range ts.queue {
		if q == p {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			return
		}
	}
}

// Drain advances the virtual clock past every outstanding finish,
// admitting queued queries as capacity frees. Queries still queued on a
// fully idle pool are infeasible and are rejected.
func (a *Arbiter) Drain() error {
	for {
		if err := a.tryAdmit(); err != nil {
			return err
		}
		finT, ok := a.pool.NextFinish()
		if !ok {
			break
		}
		if err := a.advanceTo(finT); err != nil {
			return err
		}
	}
	for _, ts := range a.tenants {
		for len(ts.queue) > 0 {
			p := ts.queue[0]
			ts.queue = ts.queue[1:]
			_ = a.reject("query %s/%s infeasible at drain", p.arr.Tenant, p.arr.Query)
		}
	}
	return nil
}
