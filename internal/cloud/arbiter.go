package cloud

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/units"
)

// Recovery is what the arbiter does with a query whose allocation was
// revoked mid-run (spot preemption or runtime OOM).
type Recovery int

// Recovery policies.
const (
	// RecoverReoptimize requeues the query at the head of its tenant's
	// queue and re-optimizes it under post-preemption conditions — any
	// class, fresh plan.
	RecoverReoptimize Recovery = iota
	// RecoverOnDemand requeues the query restricted to on-demand
	// capacity: pay more, never get preempted again.
	RecoverOnDemand
	// RecoverDegrade requeues the query and clamps its submitted plan
	// onto whatever is free — fastest re-admission, possibly slower run.
	RecoverDegrade
)

// String names the policy.
func (r Recovery) String() string {
	switch r {
	case RecoverReoptimize:
		return "reoptimize"
	case RecoverOnDemand:
		return "ondemand"
	case RecoverDegrade:
		return "degrade"
	}
	return fmt.Sprintf("Recovery(%d)", int(r))
}

// ParseRecovery parses a recovery name as rendered by String.
func ParseRecovery(s string) (Recovery, error) {
	switch s {
	case "reoptimize", "":
		return RecoverReoptimize, nil
	case "ondemand":
		return RecoverOnDemand, nil
	case "degrade":
		return RecoverDegrade, nil
	}
	return 0, fmt.Errorf("cloud: unknown recovery policy %q", s)
}

// OnCap is a tenant's admission behavior once its spend reaches its
// budget cap.
type OnCap int

// Budget-cap behaviors.
const (
	// CapSpotOnly keeps admitting the tenant but only onto spot
	// capacity — bid low once the budget runs out.
	CapSpotOnly OnCap = iota
	// CapDegrade keeps admitting on any class but clamps plans onto the
	// free conditions — shrink the footprint once the budget runs out.
	CapDegrade
)

// String names the behavior.
func (c OnCap) String() string {
	switch c {
	case CapSpotOnly:
		return "spotonly"
	case CapDegrade:
		return "degrade"
	}
	return fmt.Sprintf("OnCap(%d)", int(c))
}

// TenantConfig describes one tenant sharing the pool.
type TenantConfig struct {
	Name string
	// Weight is the tenant's fair-share weight; <= 0 means 1. A tenant's
	// guaranteed share is Weight/ΣWeights of the pool's live containers;
	// free capacity beyond the guarantee is handed out work-conservingly.
	Weight float64
	// MaxInFlight caps the tenant's concurrently running queries
	// (admission backpressure); <= 0 means unlimited.
	MaxInFlight int
	// MaxQueue caps the tenant's waiting queries; a submission beyond it
	// is rejected (load shedding); <= 0 means unlimited.
	MaxQueue int
	// BudgetCapUSD is the tenant's spend cap; once the tenant's
	// attributed allocation bill reaches it, admission switches to the
	// OnCap behavior. 0 means uncapped; an unpriced pool never bills.
	BudgetCapUSD units.USD
	OnCap        OnCap
}

// Workload is what the arbiter plans and admits — the configuration a
// priced market (Config) shares with the fixed shared cluster of
// internal/arbiter.
type Workload struct {
	// Base is the full cluster conditions submission-time plans are
	// optimized under; per-class admission conditions are Base with the
	// memory axis capped at the class container size and the container
	// axis capped at the class free count.
	Base    cluster.Conditions
	Engine  execsim.Params
	Pricing cost.Pricing
	// Optimizer plans submissions and per-class re-optimizations. All
	// planning routes through the arbiter's own core.Incremental wrapper
	// (an exact-conditions memo), which passes conditions per call, so the
	// optimizer may be shared with other callers.
	Optimizer *core.Optimizer
	// Queries resolves arrival query names to logical queries.
	Queries map[string]*plan.Query
	Tenants []TenantConfig
}

// Config assembles an Arbiter.
type Config struct {
	Workload
	Market     Market
	Faults     FaultConfig
	Autoscaler AutoscalerConfig
	Metrics    *Metrics
	Hooks      Hooks
}

// Hooks let an owner feed its own inputs from the event loop: the shared
// cluster of internal/arbiter records its metric families, execution
// feedback and history through them. Every field is optional.
type Hooks struct {
	// Name prefixes the arbiter's errors; "" means "cloud".
	Name string
	// Admitted runs after every placement, with its outcome.
	Admitted func(o *Outcome)
	// Rejected runs after every rejection, at the gate or from a queue.
	Rejected func()
	// Completed takes every finished query, in completion order, with the
	// plan that ran (a clamped plan carries no prediction: Time 0) and its
	// simulated execution, and copies what it keeps of o (reused by the
	// next completion). Unset, the arbiter keeps the outcomes itself (see
	// Arbiter.Completed). An error aborts the event loop.
	Completed func(o *Outcome, d *core.Decision, res *execsim.Result) error
}

// Arrival is one query submission in a workload stream.
type Arrival struct {
	Tenant string
	Query  string
	// Time is the virtual arrival time in seconds.
	Time     float64
	Recovery Recovery
}

// Outcome records how one admitted query fared, including every revoked
// attempt before the one that finished.
type Outcome struct {
	Tenant string
	Query  string
	// Policy is what admission did with the query when its submitted plan
	// fit no class; market arrivals re-plan (scheduler.Reoptimize).
	Policy   scheduler.Policy
	Recovery Recovery
	// Class and Tier are where the finishing attempt ran.
	Class string
	Tier  Tier
	// Arrival, Start and Finish are virtual times; Start is the
	// finishing attempt's start.
	Arrival float64
	Start   float64
	Finish  float64
	// QueueSeconds is the total time not running: Finish - Arrival -
	// ExecSeconds, accumulating queue waits around every attempt.
	QueueSeconds float64
	// ExecSeconds is the finishing attempt's (straggler-adjusted) run.
	ExecSeconds float64
	Preemptions int
	OOMRetries  int
	Straggled   bool
	Degraded    bool
	Replanned   bool
	Containers  int
	ContainerGB float64
	// BillUSD is the tenant-attributed allocation bill across all
	// attempts, including the partial runs that were revoked.
	BillUSD units.USD
}

// Stats is a point-in-time summary of the cloud arbiter.
type Stats struct {
	Now       float64 `json:"now"`
	Completed int     `json:"completed"`
	InFlight  int     `json:"in_flight"`
	Queued    int     `json:"queued"`
	Submitted int64   `json:"submitted"`
	// Rejected counts submissions turned away at the gate or from a
	// queue, and those that could not execute at their chosen resources.
	Rejected int64 `json:"rejected"`
	// Lost is the accounting invariant: submissions neither completed,
	// running, queued, nor rejected. It must always be zero — every
	// preempted query finishes via a recovery policy.
	Lost             int64         `json:"lost"`
	Preemptions      int64         `json:"preemptions"`
	StormPreemptions int64         `json:"storm_preemptions"`
	OOMAborts        int64         `json:"oom_aborts"`
	Stragglers       int64         `json:"stragglers"`
	RecoveredReopt   int64         `json:"recovered_reoptimize"`
	RecoveredOnDem   int64         `json:"recovered_ondemand"`
	RecoveredDegrade int64         `json:"recovered_degrade"`
	DegradeStalls    int64         `json:"degrade_stalls"`
	ScaleUps         int64         `json:"scale_ups"`
	ScaleDowns       int64         `json:"scale_downs"`
	Capacity         int           `json:"capacity_containers"`
	Free             int           `json:"free_containers"`
	SpendUSD         units.USD     `json:"spend_usd"`
	Classes          []ClassStats  `json:"classes"`
	Tenants          []TenantStats `json:"tenants"`
}

// TenantStats is one tenant's point-in-time spend summary.
type TenantStats struct {
	Name     string    `json:"name"`
	SpentUSD units.USD `json:"spent_usd"`
	Capped   bool      `json:"capped"`
}

// Counts is the arbiter's accounting since it started; Stats and the
// shared cluster's stats (internal/arbiter) are views of it.
type Counts struct {
	// Submitted counts enqueued submissions. Shed ones were rejected at
	// the gate and never enqueued; Dropped ones were rejected from a queue
	// (infeasible when nothing could move); Failed ones could not execute
	// at their chosen resources; Completed ones finished.
	Submitted, Shed, Dropped, Failed, Completed int64
	// Admitted counts placements by scheduler.Policy, recoveries included.
	Admitted                                             [3]int64
	Replanned, Degraded, DegradeStalls                   int64
	Preemptions, StormPreemptions, OOMAborts, Stragglers int64
	// Recovered counts re-admissions of revoked queries by Recovery.
	Recovered            [3]int64
	ScaleUps, ScaleDowns int64
	// ReoptFull and ReoptExact are the planning answer sources (see
	// core.IncrementalStats): planned from scratch, or answered from the
	// exact-conditions memo.
	ReoptFull, ReoptExact int64
}

// ErrRejected wraps every backpressure rejection (queue full, a request
// no class can ever hold, infeasible when nothing can move).
var ErrRejected = errors.New("submission rejected")

// UnknownError reports a submission naming an unknown tenant, query,
// policy or recovery — a validation failure, not backpressure. The HTTP
// layer maps it to 400 where ErrRejected maps to 429.
type UnknownError struct {
	Kind string // "tenant", "query", "policy" or "recovery"
	Name string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("unknown %s %q", e.Kind, e.Name)
}

type pending struct {
	arr    Arrival
	policy scheduler.Policy
	ts     *tenantState
	q      *plan.Query
	dec    *core.Decision // joint plan fixed at submission (Base conditions)
	// gangHint is the submission plan's largest stage request — the
	// queue-depth demand signal the autoscaler sees.
	gangHint int
	// Revocation state: attempts revoked so far and the restrictions the
	// recovery policy imposed.
	preemptions  int
	oomRetries   int
	straggled    bool
	onDemandOnly bool
	degradeNext  bool
	lastRevokeAt float64 // < 0 when never revoked
	billUSD      units.USD
	// admitted is the latest admission's outcome, for online callers;
	// failed is set when its plan could not execute at its resources.
	admitted *Outcome
	failed   bool
}

type running struct {
	p           *pending
	class       int
	start       float64
	execSeconds float64
	dec         *core.Decision
	res         *execsim.Result
	degraded    bool
	replanned   bool
}

type tenantState struct {
	cfg     TenantConfig
	queue   []*pending
	running int
	held    int // containers currently allocated across classes
	billed  units.USD
}

// offer is one class a queue head may run on, with the conditions the
// class offers the head's tenant at scan time.
type offer struct {
	class int
	cond  cluster.Conditions
}

// stashed is a Reoptimize head waiting for its round's re-planning pass.
type stashed struct {
	p      *pending
	offers []offer
}

// request is an arrival with its admission policy.
type request struct {
	Arrival
	policy scheduler.Policy
}

// Arbiter is the admission engine: a discrete-event loop admitting a
// multi-tenant query stream onto a Pool with two-round fair-share
// admission, on a single virtual clock. The market layers priced classes,
// fault injection with recovery policies, budget caps and the autoscaler
// on it; the shared cluster of internal/arbiter is its one-class,
// unpriced, fault-free case. It is not safe for concurrent use; the HTTP
// layer serializes with a mutex.
type Arbiter struct {
	cfg         Config
	pool        *Pool
	inj         *Injector
	scaler      *Autoscaler
	reopt       *core.Incremental
	tenants     []*tenantState // config order — the deterministic scan order
	byName      map[string]*tenantState
	inflight    map[int64]*running // by pool token; never ranged
	completed   []Outcome
	done        Outcome // the completion being handed to Hooks.Completed
	pref        []int   // class indices in admission-preference order
	totalWeight float64
	joinBuf     []*plan.Node // reused by degrade's clamp walk
	offerBuf    []offer      // the scanned head's offers
	stashBuf    []offer      // the stashed heads' offers, per round
	drawSeq     int64
	n           Counts
}

// New validates the configuration and builds an idle arbiter.
func New(cfg Config) (*Arbiter, error) {
	if cfg.Hooks.Name == "" {
		cfg.Hooks.Name = "cloud"
	}
	a := &Arbiter{cfg: cfg}
	if cfg.Hooks.Completed == nil {
		a.cfg.Hooks.Completed = a.record
	}
	if err := cfg.Base.Validate(); err != nil {
		return nil, a.errorf("base conditions: %w", err)
	}
	if cfg.Optimizer == nil {
		return nil, a.errorf("optimizer required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, a.errorf("at least one tenant required")
	}
	if len(cfg.Queries) == 0 {
		return nil, a.errorf("no queries registered")
	}
	pool, err := NewPool(cfg.Market)
	if err != nil {
		return nil, err
	}
	inj, err := NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}
	scaler, err := NewAutoscaler(cfg.Autoscaler)
	if err != nil {
		return nil, err
	}
	a.pool, a.inj, a.scaler = pool, inj, scaler
	a.reopt = core.NewIncremental(cfg.Optimizer)
	a.byName = make(map[string]*tenantState, len(cfg.Tenants))
	a.inflight = make(map[int64]*running)
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, a.errorf("tenant with empty name")
		}
		if _, dup := a.byName[tc.Name]; dup {
			return nil, a.errorf("duplicate tenant %q", tc.Name)
		}
		if tc.Weight <= 0 {
			tc.Weight = 1
		}
		ts := &tenantState{cfg: tc}
		a.tenants = append(a.tenants, ts)
		a.byName[tc.Name] = ts
		a.totalWeight += tc.Weight
	}
	// Admission preference: cheapest per GB first (spot's discount makes
	// it win), then larger containers (fewer OOM fallthroughs), then
	// name — a total, deterministic order.
	a.pref = make([]int, pool.Classes())
	for i := range a.pref {
		a.pref[i] = i
	}
	sort.SliceStable(a.pref, func(x, y int) bool {
		cx, cy := pool.Class(a.pref[x]), pool.Class(a.pref[y])
		px := float64(cx.Price) / cx.ContainerGB
		py := float64(cy.Price) / cy.ContainerGB
		if px != py {
			return px < py
		}
		if cx.ContainerGB != cy.ContainerGB {
			return cx.ContainerGB > cy.ContainerGB
		}
		return cx.Name < cy.Name
	})
	a.observe()
	return a, nil
}

// Now returns the arbiter's virtual clock.
func (a *Arbiter) Now() float64 { return a.pool.Now() }

// Pool exposes the priced pool (read-only use by callers).
func (a *Arbiter) Pool() *Pool { return a.pool }

// ScaleEvents returns the autoscaler's action log.
func (a *Arbiter) ScaleEvents() []ScaleEvent { return a.scaler.Events() }

// Completed returns the outcomes recorded so far, in completion order;
// none when Hooks.Completed takes them.
func (a *Arbiter) Completed() []Outcome { return a.completed }

// record is the default Hooks.Completed: keep the outcome.
func (a *Arbiter) record(o *Outcome, _ *core.Decision, _ *execsim.Result) error {
	a.completed = append(a.completed, *o)
	return nil
}

// queuedCount sums the tenant queues.
func (a *Arbiter) queuedCount() int {
	n := 0
	for _, ts := range a.tenants {
		n += len(ts.queue)
	}
	return n
}

// queuedContainers sums the gang demand of every queued query — the
// queue-depth signal the autoscaler scales against.
func (a *Arbiter) queuedContainers() int {
	n := 0
	for _, ts := range a.tenants {
		for _, p := range ts.queue {
			n += p.gangHint
		}
	}
	return n
}

// Counts returns the arbiter's accounting so far.
func (a *Arbiter) Counts() Counts {
	n := a.n
	ist := a.reopt.Stats()
	n.ReoptFull, n.ReoptExact = ist.Full, ist.Exact
	return n
}

// Stats summarizes the arbiter's current state.
func (a *Arbiter) Stats() Stats {
	n := a.n
	st := Stats{
		Now:              a.pool.Now(),
		Completed:        int(n.Completed),
		InFlight:         len(a.inflight),
		Queued:           a.queuedCount(),
		Submitted:        n.Submitted,
		Rejected:         n.Shed + n.Dropped + n.Failed,
		Preemptions:      n.Preemptions,
		StormPreemptions: n.StormPreemptions,
		OOMAborts:        n.OOMAborts,
		Stragglers:       n.Stragglers,
		RecoveredReopt:   n.Recovered[RecoverReoptimize],
		RecoveredOnDem:   n.Recovered[RecoverOnDemand],
		RecoveredDegrade: n.Recovered[RecoverDegrade],
		DegradeStalls:    n.DegradeStalls,
		ScaleUps:         n.ScaleUps,
		ScaleDowns:       n.ScaleDowns,
		Capacity:         a.pool.Capacity(),
		Free:             a.pool.Free(),
		SpendUSD:         a.pool.SpendUSD(),
		Classes:          a.pool.Stats(),
	}
	st.Lost = n.Submitted - int64(st.Completed) - int64(st.InFlight) - int64(st.Queued) - n.Dropped - n.Failed
	for _, ts := range a.tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Name:     ts.cfg.Name,
			SpentUSD: ts.billed,
			Capped:   a.overCap(ts),
		})
	}
	if m := a.cfg.Metrics; m != nil {
		m.Lost.Set(st.Lost)
	}
	return st
}

// overCap reports whether the tenant's attributed spend reached its cap.
func (a *Arbiter) overCap(ts *tenantState) bool {
	return ts.cfg.BudgetCapUSD > 0 && ts.billed >= ts.cfg.BudgetCapUSD
}

// errorf formats an error under the arbiter's name.
func (a *Arbiter) errorf(format string, args ...any) error {
	return fmt.Errorf(a.cfg.Hooks.Name+": "+format, args...)
}

// unknown wraps an UnknownError under the arbiter's name.
func (a *Arbiter) unknown(kind, name string) error {
	return a.errorf("%w", &UnknownError{Kind: kind, Name: name})
}

// reject counts one rejection and wraps ErrRejected. A queued p is
// dequeued (dropped); a nil p was never enqueued (shed).
func (a *Arbiter) reject(p *pending, format string, args ...any) error {
	if p == nil {
		a.n.Shed++
	} else {
		a.dequeue(p)
		a.n.Dropped++
	}
	if m := a.cfg.Metrics; m != nil {
		m.Rejections.Inc()
	}
	if h := a.cfg.Hooks.Rejected; h != nil {
		h()
	}
	return a.errorf("%w: %s", ErrRejected, fmt.Sprintf(format, args...))
}

// dequeue removes a pending from its tenant's queue.
func (a *Arbiter) dequeue(p *pending) {
	ts := p.ts
	for i, q := range ts.queue {
		if q == p {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			return
		}
	}
}

// rejectQueued rejects every query still queued once nothing can move:
// it is infeasible.
func (a *Arbiter) rejectQueued() {
	for _, ts := range a.tenants {
		for len(ts.queue) > 0 {
			p := ts.queue[0]
			_ = a.reject(p, "query %s/%s infeasible at drain", p.arr.Tenant, p.arr.Query)
		}
	}
	a.observe()
}

// submit enqueues one arrival. Arrival times before the virtual now are
// clamped (online callers submit "at now"). Unknown names are
// UnknownErrors; a full tenant queue and a Wait request no class can ever
// hold wrap ErrRejected.
func (a *Arbiter) submit(arr Arrival, policy scheduler.Policy) (*pending, error) {
	ts, ok := a.byName[arr.Tenant]
	if !ok {
		return nil, a.unknown("tenant", arr.Tenant)
	}
	q, ok := a.cfg.Queries[arr.Query]
	if !ok {
		return nil, a.unknown("query", arr.Query)
	}
	if policy != scheduler.Wait && policy != scheduler.Degrade && policy != scheduler.Reoptimize {
		return nil, a.unknown("policy", policy.String())
	}
	if arr.Recovery != RecoverReoptimize && arr.Recovery != RecoverOnDemand && arr.Recovery != RecoverDegrade {
		return nil, a.unknown("recovery", arr.Recovery.String())
	}
	if arr.Time < a.pool.Now() {
		arr.Time = a.pool.Now()
	}
	if ts.cfg.MaxQueue > 0 && len(ts.queue) >= ts.cfg.MaxQueue {
		return nil, a.reject(nil, "tenant %s queue full (%d)", arr.Tenant, ts.cfg.MaxQueue)
	}
	// The plan a client fixes at submission time is optimized under the
	// full Base conditions; after a query's first submission the memo
	// answers, per live model set.
	dec, _, err := a.reopt.Optimize(q, a.cfg.Base)
	if err != nil {
		return nil, err
	}
	gang := scheduler.MaxRequested(dec.Plan)
	if policy == scheduler.Wait {
		// A Wait request larger than any class can ever offer would queue
		// forever.
		if most := a.largestGang(gang.ContainerGB); gang.Containers > most {
			return nil, a.reject(nil, "query %s requests %d containers, cluster admits at most %d",
				arr.Query, gang.Containers, most)
		}
	}
	p := &pending{arr: arr, policy: policy, ts: ts, q: q, dec: dec, gangHint: max(gang.Containers, 1), lastRevokeAt: -1}
	ts.queue = append(ts.queue, p)
	a.n.Submitted++
	return p, nil
}

// largestGang is the largest gang of containers of at least gb GB that
// any class can ever offer.
func (a *Arbiter) largestGang(gb float64) int {
	most := 0
	for i := 0; i < a.pool.Classes(); i++ {
		if c := a.pool.Class(i); c.ContainerGB+1e-9 >= gb {
			most = max(most, c.Count, c.MaxCount)
		}
	}
	return min(most, a.cfg.Base.MaxContainers)
}

// condFor derives the conditions class ci can offer tenant ts right now;
// under fairShare the container axis is additionally capped by the
// tenant's unused guaranteed share of the total live capacity.
func (a *Arbiter) condFor(ci int, ts *tenantState, fairShare bool) (cluster.Conditions, bool) {
	cond, ok := a.pool.ConditionsFor(ci, a.cfg.Base)
	if !ok {
		return cluster.Conditions{}, false
	}
	if fairShare {
		share := int(ts.cfg.Weight / a.totalWeight * float64(a.pool.Capacity()))
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

// gangBill prices holding a gang of containers at a class's rate.
func gangBill(price units.USDPerHour, containers int, seconds float64) units.USD {
	return units.USD(float64(price.Over(seconds)) * float64(containers))
}

// observe refreshes the point-in-time gauges and spend counters.
func (a *Arbiter) observe() {
	m := a.cfg.Metrics
	if m == nil {
		return
	}
	m.Capacity.Set(int64(a.pool.Capacity()))
	m.InUse.Set(int64(a.pool.InUse()))
	for i := 0; i < a.pool.Classes(); i++ {
		name := a.pool.Class(i).Name
		m.observeSpend(m.Spend, name, a.pool.SpendOf(i))
	}
	for _, ts := range a.tenants {
		m.observeSpend(m.TenantSpend, ts.cfg.Name, ts.billed)
	}
}

// advanceTo moves the virtual clock, landing due capacity and recording
// completions in deterministic (finish, token) order.
func (a *Arbiter) advanceTo(t float64) error {
	for _, rel := range a.pool.Advance(t) {
		run, ok := a.inflight[rel.Token]
		if !ok {
			return a.errorf("released unknown allocation %d", rel.Token)
		}
		delete(a.inflight, rel.Token)
		p := run.p
		ts := p.ts
		ts.running--
		ts.held -= rel.Containers
		bill := gangBill(a.pool.Class(run.class).Price, rel.Containers, rel.Finish-run.start)
		p.billUSD += bill
		ts.billed += bill
		a.n.Completed++
		a.done = Outcome{
			Tenant:       p.arr.Tenant,
			Query:        p.arr.Query,
			Policy:       p.policy,
			Recovery:     p.arr.Recovery,
			Class:        rel.ClassName,
			Tier:         rel.Tier,
			Arrival:      p.arr.Time,
			Start:        run.start,
			Finish:       rel.Finish,
			QueueSeconds: rel.Finish - p.arr.Time - run.execSeconds,
			ExecSeconds:  run.execSeconds,
			Preemptions:  p.preemptions,
			OOMRetries:   p.oomRetries,
			Straggled:    p.straggled,
			Degraded:     run.degraded,
			Replanned:    run.replanned,
			Containers:   rel.Containers,
			ContainerGB:  rel.ContainerGB,
			BillUSD:      p.billUSD,
		}
		if err := a.cfg.Hooks.Completed(&a.done, run.dec, run.res); err != nil {
			return err
		}
	}
	a.observe()
	return nil
}

// revokeToken aborts one running allocation at virtual time at, bills
// the partial run, applies the recovery policy and requeues the query at
// the head of its tenant's queue. Stale tokens (already finished) are
// skipped — finish wins at the same instant.
func (a *Arbiter) revokeToken(tok int64, kind FaultKind, at float64, storm bool) {
	run, ok := a.inflight[tok]
	if !ok {
		return
	}
	rel, ok := a.pool.Revoke(tok)
	if !ok {
		return
	}
	delete(a.inflight, tok)
	p := run.p
	ts := p.ts
	ts.running--
	ts.held -= rel.Containers
	bill := gangBill(a.pool.Class(run.class).Price, rel.Containers, at-run.start)
	p.billUSD += bill
	ts.billed += bill
	m := a.cfg.Metrics
	switch kind {
	case FaultPreempt:
		p.preemptions++
		a.n.Preemptions++
		if storm {
			a.n.StormPreemptions++
		}
		if m != nil {
			m.Preemptions.With(rel.ClassName).Inc()
		}
	case FaultOOM:
		p.oomRetries++
		a.n.OOMAborts++
		if m != nil {
			m.OOMAborts.Inc()
		}
	}
	switch p.arr.Recovery {
	case RecoverOnDemand:
		p.onDemandOnly = true
	case RecoverDegrade:
		p.degradeNext = true
	}
	p.lastRevokeAt = at
	p.admitted = nil
	ts.queue = append(ts.queue, nil)
	copy(ts.queue[1:], ts.queue)
	ts.queue[0] = p
}

// fireStorm revokes ceil(fraction * running-spot) spot allocations in
// allocation order — the one-shot preemption storm.
func (a *Arbiter) fireStorm(at float64) {
	toks := a.pool.RunningSpot()
	n := int(math.Ceil(a.inj.StormFraction() * float64(len(toks))))
	for _, tok := range toks[:n] {
		a.revokeToken(tok, FaultPreempt, at, true)
	}
	a.inj.MarkStorm()
}

// PreemptFraction revokes ceil(fraction * running-spot) spot allocations
// right now, in allocation order, then re-admits what it can — the
// online preemption-burst injection behind POST /v1/cloud/preempt.
func (a *Arbiter) PreemptFraction(fraction float64) (int, error) {
	if fraction < 0 || fraction > 1 {
		return 0, a.errorf("preempt fraction %g outside [0, 1]", fraction)
	}
	toks := a.pool.RunningSpot()
	n := int(math.Ceil(fraction * float64(len(toks))))
	for _, tok := range toks[:n] {
		a.revokeToken(tok, FaultPreempt, a.pool.Now(), false)
	}
	if err := a.tryAdmit(); err != nil {
		return n, err
	}
	a.observe()
	return n, nil
}

// offers lists, in preference order, the classes queue head p may run on
// and the conditions each offers its tenant now. Recovery and budget caps
// filter classes (on-demand only, spot only) or switch the head to
// degraded admission.
func (a *Arbiter) offers(p *pending, fairShare bool) (offers []offer, degrade bool) {
	degrade = p.degradeNext
	spotOnly := false
	if a.overCap(p.ts) && !p.onDemandOnly {
		switch p.ts.cfg.OnCap {
		case CapDegrade:
			degrade = true
		default:
			spotOnly = true
		}
	}
	offers = a.offerBuf[:0]
	for _, ci := range a.pref {
		tier := a.pool.Class(ci).Tier
		if p.onDemandOnly && tier == Spot || spotOnly && tier != Spot {
			continue
		}
		if cond, ok := a.condFor(ci, p.ts, fairShare); ok {
			offers = append(offers, offer{class: ci, cond: cond})
		}
	}
	a.offerBuf = offers
	return offers, degrade
}

// start executes d for queue head p on class ci and holds its gang until
// its virtual finish. A plan that cannot execute at its chosen resources
// (a mispredicted broadcast build side) fails the query deterministically
// instead of aborting the workload.
func (a *Arbiter) start(p *pending, ci int, d *core.Decision, replanned bool) error {
	res, err := a.cfg.Engine.Execute(d.Plan, a.cfg.Pricing)
	if err != nil {
		var oom *execsim.OOMError
		if !errors.As(err, &oom) {
			return a.errorf("executing %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
		}
		p.ts.queue = p.ts.queue[1:]
		p.failed = true
		a.n.Failed++
		return nil
	}
	return a.place(p, ci, d, res, replanned, false)
}

// degrade clamps a copy of head p's submitted plan onto the first offer
// whose clamp can execute and holds it there. When no clamp can (the
// broadcast build side no longer fits the shrunken containers), the head
// stays queued for the next event.
func (a *Arbiter) degrade(p *pending, offers []offer) (bool, error) {
	for _, o := range offers {
		clamped, buf := scheduler.ClampClone(p.dec.Plan, o.cond, a.joinBuf)
		a.joinBuf = buf
		res, err := a.cfg.Engine.Execute(clamped, a.cfg.Pricing)
		if err != nil {
			var oom *execsim.OOMError
			if errors.As(err, &oom) {
				continue
			}
			return false, a.errorf("executing %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
		}
		// A clamped plan carries no planner prediction (Time 0).
		return true, a.place(p, o.class, &core.Decision{Plan: clamped}, res, false, true)
	}
	a.n.DegradeStalls++
	return false, nil
}

// place admits queue head p on class ci: roll its fault draw, hold the
// gang until its effective finish, schedule any mid-run faults.
func (a *Arbiter) place(p *pending, ci int, d *core.Decision, res *execsim.Result, replanned, degraded bool) error {
	ts := p.ts
	def := a.pool.Class(ci)
	gang := scheduler.MaxRequested(d.Plan)
	if gang.Containers < 1 {
		gang.Containers = 1
	}
	now := a.pool.Now()
	a.drawSeq++
	draw := a.inj.Draw(a.drawSeq, def.Tier, now, res.Seconds)
	tok, err := a.pool.Allocate(ci, gang.Containers, gang.ContainerGB, now+draw.ExecSeconds)
	if err != nil {
		return a.errorf("%s/%s: %w", p.arr.Tenant, p.arr.Query, err)
	}
	ts.queue = ts.queue[1:]
	ts.running++
	ts.held += gang.Containers
	m := a.cfg.Metrics
	if draw.Straggler {
		p.straggled = true
		a.n.Stragglers++
		if m != nil {
			m.Stragglers.Inc()
		}
	}
	if draw.OOMAt >= now {
		a.inj.Schedule(FaultEvent{At: draw.OOMAt, Token: tok, Kind: FaultOOM})
	}
	if draw.PreemptAt >= now {
		a.inj.Schedule(FaultEvent{At: draw.PreemptAt, Token: tok, Kind: FaultPreempt})
	}
	out := &Outcome{
		Tenant:       p.arr.Tenant,
		Query:        p.arr.Query,
		Policy:       p.policy,
		Recovery:     p.arr.Recovery,
		Class:        def.Name,
		Tier:         def.Tier,
		Arrival:      p.arr.Time,
		Start:        now,
		Finish:       now + draw.ExecSeconds,
		QueueSeconds: now - p.arr.Time,
		ExecSeconds:  draw.ExecSeconds,
		Preemptions:  p.preemptions,
		OOMRetries:   p.oomRetries,
		Straggled:    p.straggled,
		Degraded:     degraded,
		Replanned:    replanned,
		Containers:   gang.Containers,
		ContainerGB:  gang.ContainerGB,
		BillUSD:      p.billUSD,
	}
	p.admitted = out
	a.inflight[tok] = &running{
		p: p, class: ci, start: now, execSeconds: draw.ExecSeconds,
		dec: d, res: res, degraded: degraded, replanned: replanned,
	}
	a.n.Admitted[p.policy]++
	if replanned {
		a.n.Replanned++
	}
	if degraded {
		a.n.Degraded++
	}
	if m != nil {
		m.Admissions.With(tierLabel(def.Tier)).Inc()
		m.QueueWait.Observe(out.QueueSeconds)
	}
	if p.lastRevokeAt >= 0 {
		// This admission is a recovery of a revoked attempt.
		a.n.Recovered[p.arr.Recovery]++
		if m != nil {
			m.Recoveries.With(recoveryLabel(p.arr.Recovery)).Inc()
			m.RecoveryWait.Observe(now - p.lastRevokeAt)
		}
		p.lastRevokeAt = -1
	}
	if h := a.cfg.Hooks.Admitted; h != nil {
		h(out)
	}
	a.observe()
	return nil
}

// admitRound makes one admission pass over the tenants in config order.
// Under fairShare each tenant sees only its unused guaranteed share; the
// elastic round hands out all remaining free capacity work-conservingly.
// Admission is FIFO per tenant: a blocked head blocks the queue behind it.
//
// A head first tries its submitted plan on the first class, in
// preference order, that the plan fits. On a miss its policy decides:
// Wait blocks the queue, Degrade clamps the plan onto the first class
// whose clamp can execute, Reoptimize stashes the head. After the scan,
// each stashed head is re-planned class by class under the conditions
// seen at scan time and admitted on the first class the new plan still
// fits.
func (a *Arbiter) admitRound(fairShare bool) (bool, error) {
	progress := false
	var stash []stashed
	a.stashBuf = a.stashBuf[:0]
	for _, ts := range a.tenants {
	scan:
		for len(ts.queue) > 0 {
			if ts.cfg.MaxInFlight > 0 && ts.running >= ts.cfg.MaxInFlight {
				break
			}
			p := ts.queue[0]
			offers, degrade := a.offers(p, fairShare)
			if len(offers) == 0 {
				break
			}
			if ci := fitting(p.dec.Plan, offers); ci >= 0 {
				if err := a.start(p, ci, p.dec, false); err != nil {
					return false, err
				}
				progress = true
				continue
			}
			switch {
			case degrade || p.policy == scheduler.Degrade:
				admitted, err := a.degrade(p, offers)
				if err != nil {
					return false, err
				}
				if !admitted {
					break scan
				}
				progress = true
			case p.policy == scheduler.Reoptimize:
				lo := len(a.stashBuf)
				a.stashBuf = append(a.stashBuf, offers...)
				stash = append(stash, stashed{p: p, offers: a.stashBuf[lo:len(a.stashBuf):len(a.stashBuf)]})
				break scan
			default: // Wait: the head queues until its gang frees up.
				break scan
			}
		}
	}
	for _, s := range stash {
		// Repeated conditions answer from the exact memo; only new ones pay
		// a full joint optimization.
		for _, o := range s.offers {
			d, _, err := a.reopt.Optimize(s.p.q, o.cond)
			if err != nil {
				return false, a.errorf("re-optimizing %s/%s: %w", s.p.arr.Tenant, s.p.arr.Query, err)
			}
			// Earlier admissions in this pass shrank the pool: recheck
			// before holding the gang. A plan that fits no class retries
			// next event.
			if cond, ok := a.condFor(o.class, s.p.ts, fairShare); !ok || !scheduler.Fits(d.Plan, cond) {
				continue
			}
			if err := a.start(s.p, o.class, d, !d.Plan.Equal(s.p.dec.Plan)); err != nil {
				return false, err
			}
			progress = true
			break
		}
	}
	return progress, nil
}

// fitting returns the class of the first offer root fits, or -1.
func fitting(root *plan.Node, offers []offer) int {
	for _, o := range offers {
		if scheduler.Fits(root, o.cond) {
			return o.class
		}
	}
	return -1
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

// hasWork reports whether anything is running or queued — the condition
// under which the autoscaler keeps ticking.
func (a *Arbiter) hasWork() bool {
	return len(a.inflight) > 0 || a.queuedCount() > 0
}

// nextHardEvent returns the earliest event that by itself moves state:
// an allocation finish, a scale-up arrival, or a scheduled fault/storm.
func (a *Arbiter) nextHardEvent() (float64, bool) {
	best, ok := a.pool.NextEvent()
	if t, has := a.inj.Next(); has && (!ok || t < best) {
		best, ok = t, true
	}
	return best, ok
}

// nextInternalEvent returns the earliest internal event: a hard event, or
// (while work is outstanding) the next autoscaler tick.
func (a *Arbiter) nextInternalEvent() (float64, bool) {
	best, ok := a.nextHardEvent()
	if a.hasWork() {
		if t, has := a.scaler.NextTick(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// stepTo advances the clock to te and processes everything due there, in
// a fixed order: completions (finish wins ties), scheduled faults, the
// storm, then the autoscaler tick.
func (a *Arbiter) stepTo(te float64) error {
	if err := a.advanceTo(te); err != nil {
		return err
	}
	for _, ev := range a.inj.PopDue(te) {
		a.revokeToken(ev.Token, ev.Kind, ev.At, false)
	}
	if a.inj.StormDue(te) {
		a.fireStorm(te)
	}
	if tickT, ok := a.scaler.NextTick(); ok && tickT <= te {
		if a.hasWork() {
			for _, ev := range a.scaler.Step(a.pool.Now(), a.pool, a.queuedContainers()) {
				m := a.cfg.Metrics
				if ev.Delta > 0 {
					a.n.ScaleUps++
					if m != nil {
						m.ScaleEvents.With("up").Inc()
					}
				} else {
					a.n.ScaleDowns++
					if m != nil {
						m.ScaleEvents.With("down").Inc()
					}
				}
			}
		} else {
			// Consume the tick without acting so the loop does not spin.
			a.scaler.Step(a.pool.Now(), a.pool, 0)
		}
	}
	a.observe()
	return nil
}

// progressSig fingerprints the observable scheduling state; a loop that
// keeps firing events without changing it is stalled.
type progressSig struct {
	inflight, queued, capacity, pendingCap int
	completed, revocations                 int64
}

func (a *Arbiter) sig() progressSig {
	pend := 0
	for i := 0; i < a.pool.Classes(); i++ {
		pend += a.pool.PendingOf(i)
	}
	return progressSig{
		completed:   a.n.Completed,
		inflight:    len(a.inflight),
		queued:      a.queuedCount(),
		capacity:    a.pool.Capacity(),
		pendingCap:  pend,
		revocations: a.n.Preemptions + a.n.OOMAborts,
	}
}

// maxStall is how many consecutive no-progress event iterations the loop
// tolerates before giving up: autoscaler ticks fire forever while work is
// queued, so "no events left" alone cannot detect an infeasible queue
// head.
const maxStall = 3

// loop is the event loop. Each turn admits what fits and returns once
// until (when set) is admitted or failed; otherwise it advances the clock
// to the next event — the next of arrivals (sorted by time), an
// allocation finish, a capacity arrival, a fault, or while work is
// outstanding an autoscaler tick — and submits the arrivals due by then.
// It returns when no event is left, or when only autoscaler ticks remain
// and maxStall of them in a row changed nothing.
func (a *Arbiter) loop(arrivals []request, until *pending) error {
	next, stall := 0, 0
	for {
		before := a.sig()
		if err := a.tryAdmit(); err != nil {
			return err
		}
		if until != nil && (until.admitted != nil || until.failed) {
			return nil
		}
		te, ok := a.nextInternalEvent()
		if next < len(arrivals) && (!ok || arrivals[next].Time <= te) {
			te, ok = arrivals[next].Time, true
		}
		if !ok {
			return nil
		}
		if err := a.stepTo(te); err != nil {
			return err
		}
		changed := false
		for ; next < len(arrivals) && arrivals[next].Time <= te; next++ {
			if _, err := a.submit(arrivals[next].Arrival, arrivals[next].policy); err != nil && !errors.Is(err, ErrRejected) {
				return err
			}
			changed = true // a submission is progress even if admission waits
		}
		if changed || a.sig() != before {
			stall = 0
		} else if _, hard := a.nextHardEvent(); !hard && next == len(arrivals) {
			if stall++; stall >= maxStall {
				return nil
			}
		}
	}
}

// Run replays a whole arrival stream to completion, re-planning each
// arrival on a miss, and returns the outcomes in completion order.
// Backpressure rejections are counted, not fatal; queries still queued
// once nothing can move are rejected as infeasible. The stream is sorted
// by arrival time (stable, so tied arrivals keep their input order).
func (a *Arbiter) Run(arrivals []Arrival) ([]Outcome, error) {
	err := a.RunWith(arrivals, nil)
	return a.completed, err
}

// RunWith is Run with an admission policy per arrival — the shared
// cluster's entry point (internal/arbiter). Nil policies re-plan every
// arrival on a miss.
func (a *Arbiter) RunWith(arrivals []Arrival, policies []scheduler.Policy) error {
	if policies != nil && len(policies) != len(arrivals) {
		return a.errorf("%d policies for %d arrivals", len(policies), len(arrivals))
	}
	reqs := make([]request, len(arrivals))
	for i, arr := range arrivals {
		reqs[i] = request{Arrival: arr, policy: scheduler.Reoptimize}
		if policies != nil {
			reqs[i].policy = policies[i]
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Time < reqs[j].Time })
	if err := a.loop(reqs, nil); err != nil {
		return err
	}
	a.rejectQueued()
	return nil
}

// SubmitWait submits one query at the current virtual time, re-planning
// on a miss, and advances the clock just far enough to admit it,
// returning the admission outcome (whose Finish lies in the virtual
// future; a later preemption may still revoke and re-admit it — the
// final word is in Completed). This is the online path behind
// POST /v1/cloud/submit.
func (a *Arbiter) SubmitWait(tenant, query string, rec Recovery) (*Outcome, error) {
	return a.SubmitWaitWith(Arrival{Tenant: tenant, Query: query, Time: a.pool.Now(), Recovery: rec}, scheduler.Reoptimize)
}

// SubmitWaitWith is SubmitWait for one arrival under an explicit
// admission policy — the shared cluster's entry point (internal/arbiter).
// A query that can never be admitted is rejected and leaves no trace in
// the queues.
func (a *Arbiter) SubmitWaitWith(arr Arrival, policy scheduler.Policy) (*Outcome, error) {
	p, err := a.submit(arr, policy)
	if err != nil {
		return nil, err
	}
	if err := a.loop(nil, p); err != nil {
		return nil, err
	}
	switch {
	case p.admitted != nil:
		return p.admitted, nil
	case p.failed:
		return nil, a.errorf("query %s/%s failed to execute at its chosen resources", arr.Tenant, arr.Query)
	}
	return nil, a.reject(p, "query %s/%s cannot be admitted even on an idle pool", arr.Tenant, arr.Query)
}

// Drain advances the virtual clock past every outstanding finish, fault
// and scale event, admitting queued queries as capacity frees. Queries
// still queued when nothing can move are infeasible and are rejected.
func (a *Arbiter) Drain() error {
	if err := a.loop(nil, nil); err != nil {
		return err
	}
	a.rejectQueued()
	return nil
}
