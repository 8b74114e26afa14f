package cloud

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/scheduler"
	"raqo/internal/telemetry"
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

// TenantConfig describes one tenant sharing the pool.
type TenantConfig struct {
	Name string
	// Weight is the tenant's fair-share weight; <= 0 means 1. A tenant's
	// guaranteed share is Weight/ΣWeights of the pool's live containers;
	// free capacity beyond the guarantee is handed out work-conservingly.
	Weight float64
}

// Engine returns the engine admitted plans execute on, priced at the
// default serverless rate. A Workload's Optimizer plans against it, and
// execution feedback from admitted queries is labelled with its Name.
func Engine() execsim.Params { return execsim.Hive() }

// Workload is what the arbiter plans and admits — the configuration a
// priced market shares with the shared cluster (SharedCluster).
type Workload struct {
	// Base is the full cluster conditions submission-time plans are
	// optimized under; per-class admission conditions are Base with the
	// memory axis capped at the class container size and the container
	// axis capped at the class free count.
	Base cluster.Conditions
	// Optimizer plans submissions and per-class re-optimizations, with
	// Engine() as its core.Options.Engine. All planning routes through the
	// arbiter's own core.Incremental wrapper (an exact-conditions memo),
	// which passes conditions per call, so the optimizer may be shared
	// with other callers: the server's two arbiters plan on the optimizer
	// that answers its /v1/optimize.
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

// Hooks let an owner feed its own inputs from the event loop: the server's
// shared cluster records its metric families through them, and
// FeedbackHook's completion feeds execution feedback, history and
// recalibration. Every field is optional.
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
	// next completion). Set, the arbiter keeps only Run's outcomes itself;
	// unset, every outcome (see Arbiter.Completed). An error aborts the
	// event loop.
	Completed func(o *Outcome, d *core.Decision, res *execsim.Result) error
}

// Arrival is one query submission in a workload stream.
type Arrival struct {
	Tenant string
	Query  string
	// Time is the virtual arrival time in seconds.
	Time float64
	// Policy is what admission does with the query when its submitted plan
	// fits no class; market arrivals re-plan (scheduler.Reoptimize).
	Policy   scheduler.Policy
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

// QueueRunRatio is Figure 1's queue-time/run-time ratio of a query with
// no revoked attempt, as on the shared cluster: (Start - Arrival) /
// ExecSeconds, and 0 without a run time. Start - Arrival is the queue time
// such an outcome reports; QueueSeconds can differ from it in the last
// bit.
func (o *Outcome) QueueRunRatio() float64 {
	if o.ExecSeconds <= 0 {
		return 0
	}
	return (o.Start - o.Arrival) / o.ExecSeconds
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
}

// Counts is the arbiter's accounting since it started; Stats and the
// server's shared-cluster stats are views of it.
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

// ErrRejected wraps every backpressure rejection (a request no class can
// ever hold, infeasible when nothing can move).
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
	arr Arrival
	ts  *tenantState
	q   *plan.Query
	dec *core.Decision // joint plan fixed at submission (Base conditions)
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
	// admitted is the running attempt's admission outcome, for online
	// callers and for its completion record; failed is set when its plan
	// could not execute at its resources.
	admitted *Outcome
	failed   bool
}

// running is one admitted attempt holding its gang; its class, times,
// gang and flags are its pending's admitted outcome.
type running struct {
	p   *pending
	dec *core.Decision
	res *execsim.Result
}

type tenantState struct {
	cfg    TenantConfig
	queue  []*pending
	held   int // containers currently allocated across classes
	billed units.USD
}

// popHead removes the queue head. A queue it empties restarts at the
// front of its array, so the next submission appends without
// reallocating; a longer queue is resliced.
func (ts *tenantState) popHead() {
	ts.queue[0] = nil
	if len(ts.queue) == 1 {
		ts.queue = ts.queue[:0]
		return
	}
	ts.queue = ts.queue[1:]
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

// Arbiter is the admission engine: a discrete-event loop admitting a
// multi-tenant query stream onto a Pool with two-round fair-share
// admission, on a single virtual clock. The market layers priced classes,
// fault injection with recovery policies and the autoscaler on it; the
// shared cluster (SharedCluster) is its one-class, unpriced, fault-free
// case. It is not safe for concurrent use; the HTTP layer serializes with
// a mutex.
type Arbiter struct {
	cfg         Config
	pool        *Pool
	inj         *Injector
	scaler      *Autoscaler
	reopt       *core.Incremental
	tenants     []*tenantState // config order — the deterministic scan order
	byName      map[string]*tenantState
	inflight    map[int64]running // by pool token; never ranged
	completed   []Outcome
	running     bool    // inside Run: completions are kept whatever the hook
	done        Outcome // the completion being handed to Hooks.Completed
	pref        []int   // class indices in admission-preference order
	totalWeight float64
	offerBuf    []offer   // the scanned head's offers
	stashBuf    []offer   // the stashed heads' offers, per round
	stash       []stashed // the round's stashed heads
	drawSeq     int64
	n           Counts
	// With Metrics set: the spend meters, one per class then one per
	// tenant, and each class's tier admission counter, resolved at its
	// first use.
	spend    []spendMeter
	admitted []*telemetry.Counter
}

// New validates the configuration and builds an idle arbiter.
func New(cfg Config) (*Arbiter, error) {
	if cfg.Hooks.Name == "" {
		cfg.Hooks.Name = "cloud"
	}
	a := &Arbiter{cfg: cfg}
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
	a.inflight = make(map[int64]running)
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
	if m := cfg.Metrics; m != nil {
		a.admitted = make([]*telemetry.Counter, pool.Classes())
		for i := 0; i < pool.Classes(); i++ {
			a.spend = append(a.spend, spendMeter{vec: m.Spend, key: pool.Class(i).Name})
		}
		for _, ts := range a.tenants {
			a.spend = append(a.spend, spendMeter{vec: m.TenantSpend, key: ts.cfg.Name})
		}
	}
	a.observe()
	return a, nil
}

// Now returns the arbiter's virtual clock.
func (a *Arbiter) Now() float64 { return a.pool.Now() }

// Pool exposes the priced pool (read-only use by callers).
func (a *Arbiter) Pool() *Pool { return a.pool }

// ScaleEvents returns the autoscaler's action log.
func (a *Arbiter) ScaleEvents() []ScaleEvent { return a.scaler.Events() }

// Completed returns the outcomes kept so far, in completion order: every
// one without a Hooks.Completed, only Run's with one, so an online arbiter
// whose hook takes its completions does not grow per submission.
func (a *Arbiter) Completed() []Outcome { return a.completed }

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

// Gauges is the arbiter's clock and occupancy: the scalars of Stats that
// need neither its per-class nor its per-tenant slice.
type Gauges struct {
	Now      float64
	InFlight int
	Queued   int
	Free     int // free containers
}

// Gauges reads the clock and occupancy without building Stats.
func (a *Arbiter) Gauges() Gauges {
	return Gauges{Now: a.pool.Now(), InFlight: len(a.inflight), Queued: a.queuedCount(), Free: a.pool.Free()}
}

// Stats summarizes the arbiter's current state.
func (a *Arbiter) Stats() Stats {
	n, g := a.n, a.Gauges()
	st := Stats{
		Now:              g.Now,
		Completed:        int(n.Completed),
		InFlight:         g.InFlight,
		Queued:           g.Queued,
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
		Free:             g.Free,
		SpendUSD:         a.pool.SpendUSD(),
		Classes:          a.pool.Stats(),
	}
	st.Lost = n.Submitted - int64(st.Completed) - int64(st.InFlight) - int64(st.Queued) - n.Dropped - n.Failed
	for _, ts := range a.tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Name:     ts.cfg.Name,
			SpentUSD: ts.billed,
		})
	}
	if m := a.cfg.Metrics; m != nil {
		m.Lost.Set(st.Lost)
	}
	return st
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
// UnknownErrors; a Wait request no class can ever hold wraps ErrRejected.
func (a *Arbiter) submit(arr Arrival) (*pending, error) {
	ts, ok := a.byName[arr.Tenant]
	if !ok {
		return nil, a.unknown("tenant", arr.Tenant)
	}
	q, ok := a.cfg.Queries[arr.Query]
	if !ok {
		return nil, a.unknown("query", arr.Query)
	}
	if arr.Policy != scheduler.Wait && arr.Policy != scheduler.Degrade && arr.Policy != scheduler.Reoptimize {
		return nil, a.unknown("policy", arr.Policy.String())
	}
	if arr.Recovery != RecoverReoptimize && arr.Recovery != RecoverOnDemand && arr.Recovery != RecoverDegrade {
		return nil, a.unknown("recovery", arr.Recovery.String())
	}
	if arr.Time < a.pool.Now() {
		arr.Time = a.pool.Now()
	}
	// The plan a client fixes at submission time is optimized under the
	// full Base conditions; after a query's first submission the memo
	// answers, per live model set.
	dec, _, err := a.reopt.Optimize(q, a.cfg.Base)
	if err != nil {
		return nil, err
	}
	gang := scheduler.MaxRequested(dec.Plan)
	if arr.Policy == scheduler.Wait {
		// A Wait request larger than any class can ever offer would queue
		// forever.
		if most := a.largestGang(gang.ContainerGB); gang.Containers > most {
			return nil, a.reject(nil, "query %s requests %d containers, cluster admits at most %d",
				arr.Query, gang.Containers, most)
		}
	}
	p := &pending{arr: arr, ts: ts, q: q, dec: dec, gangHint: max(gang.Containers, 1), lastRevokeAt: -1}
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
	classes := a.pool.Classes()
	for i := 0; i < classes; i++ {
		a.spend[i].observe(a.pool.SpendOf(i))
	}
	for i, ts := range a.tenants {
		a.spend[classes+i].observe(ts.billed)
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
		ts.held -= rel.Containers
		bill := gangBill(a.pool.Class(rel.Class).Price, rel.Containers, rel.Finish-p.admitted.Start)
		p.billUSD += bill
		ts.billed += bill
		a.n.Completed++
		// The completion is the attempt's admission record with the queue
		// time and bill of the whole query. A copy: online callers may
		// still read the admission record after the arbiter's lock.
		a.done = *p.admitted
		a.done.QueueSeconds = rel.Finish - p.arr.Time - a.done.ExecSeconds
		a.done.BillUSD = p.billUSD
		h := a.cfg.Hooks.Completed
		if h == nil || a.running {
			a.completed = append(a.completed, a.done)
		}
		if h == nil {
			continue
		}
		if err := h(&a.done, run.dec, run.res); err != nil {
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
	ts.held -= rel.Containers
	bill := gangBill(a.pool.Class(rel.Class).Price, rel.Containers, at-p.admitted.Start)
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
			m.Preemptions.With(a.pool.Class(rel.Class).Name).Inc()
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
	n := int(math.Ceil(stormFraction * float64(len(toks))))
	for _, tok := range toks[:n] {
		a.revokeToken(tok, FaultPreempt, at, true)
	}
	a.inj.MarkStorm()
}

// offers lists, in preference order, the classes queue head p may run on
// and the conditions each offers its tenant now. The on-demand recovery
// policy filters out spot classes.
func (a *Arbiter) offers(p *pending, fairShare bool) []offer {
	offers := a.offerBuf[:0]
	for _, ci := range a.pref {
		if p.onDemandOnly && a.pool.Class(ci).Tier == Spot {
			continue
		}
		if cond, ok := a.condFor(ci, p.ts, fairShare); ok {
			offers = append(offers, offer{class: ci, cond: cond})
		}
	}
	a.offerBuf = offers
	return offers
}

// start executes d, a decision the memo answered for p's query, for
// queue head p on class ci and holds its gang until its virtual finish.
// The memo runs each of its decisions' simulations once
// (core.Incremental.Execute). A plan that cannot execute at its chosen
// resources (a mispredicted broadcast build side) fails the query
// deterministically instead of aborting the workload.
func (a *Arbiter) start(p *pending, ci int, d *core.Decision, replanned bool) error {
	res, err := a.reopt.Execute(p.q, d, Engine(), cost.DefaultPricing())
	if err != nil {
		var oom *execsim.OOMError
		if !errors.As(err, &oom) {
			return a.errorf("executing %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
		}
		p.ts.popHead()
		p.failed = true
		a.n.Failed++
		return nil
	}
	return a.place(p, ci, d, res, replanned, false)
}

// degrade clamps a copy of head p's submitted plan onto the first offer
// whose clamp can execute and holds it there. When no clamp can (the
// broadcast build side no longer fits the shrunken containers), the head
// stays queued for the next event. The memo clamps and runs each of its
// decisions once per offered conditions (core.Incremental.Clamp).
func (a *Arbiter) degrade(p *pending, offers []offer) (bool, error) {
	for _, o := range offers {
		clamped, res, err := a.reopt.Clamp(p.q, p.dec, o.cond, Engine(), cost.DefaultPricing())
		if err != nil {
			var oom *execsim.OOMError
			if errors.As(err, &oom) {
				continue
			}
			return false, a.errorf("executing %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
		}
		return true, a.place(p, o.class, clamped, res, false, true)
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
	ts.popHead()
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
		Policy:       p.arr.Policy,
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
	a.inflight[tok] = running{p: p, dec: d, res: res}
	a.n.Admitted[p.arr.Policy]++
	if replanned {
		a.n.Replanned++
	}
	if degraded {
		a.n.Degraded++
	}
	if m != nil {
		c := &a.admitted[ci]
		if *c == nil {
			*c = m.Admissions.With(tierLabel(def.Tier))
		}
		(*c).Inc()
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
	stash := a.stash[:0]
	a.stashBuf = a.stashBuf[:0]
	for _, ts := range a.tenants {
	scan:
		for len(ts.queue) > 0 {
			p := ts.queue[0]
			offers := a.offers(p, fairShare)
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
			case p.degradeNext || p.arr.Policy == scheduler.Degrade:
				admitted, err := a.degrade(p, offers)
				if err != nil {
					return false, err
				}
				if !admitted {
					break scan
				}
				progress = true
			case p.arr.Policy == scheduler.Reoptimize:
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
	clear(stash)
	a.stash = stash[:0]
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
func (a *Arbiter) loop(arrivals []Arrival, until *pending) error {
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
			if _, err := a.submit(arrivals[next]); err != nil && !errors.Is(err, ErrRejected) {
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

// Run replays a whole arrival stream to completion, each arrival under
// its own policy, and returns the outcomes completed during the run in
// completion order, with or without a Hooks.Completed. Backpressure
// rejections are counted, not fatal; queries still queued once nothing can
// move are rejected as infeasible. A sorted copy of the stream is
// replayed, by arrival time (stable, so tied arrivals keep their input
// order).
func (a *Arbiter) Run(arrivals []Arrival) ([]Outcome, error) {
	arrivals = slices.Clone(arrivals)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Time < arrivals[j].Time })
	from := len(a.completed)
	a.running = true
	err := a.loop(arrivals, nil)
	a.running = false
	if err != nil {
		return a.completed[from:], err
	}
	a.rejectQueued()
	return a.completed[from:], nil
}

// SubmitWait submits one query at the current virtual time, re-planning
// on a miss, and advances the clock just far enough to admit it,
// returning the admission outcome (whose Finish lies in the virtual
// future; a later preemption may still revoke and re-admit it — the
// final word is in Completed). This is the online path behind
// POST /v1/cloud/submit.
func (a *Arbiter) SubmitWait(tenant, query string, rec Recovery) (*Outcome, error) {
	return a.SubmitWaitWith(Arrival{Tenant: tenant, Query: query, Time: a.pool.Now(), Policy: scheduler.Reoptimize, Recovery: rec})
}

// SubmitWaitWith is SubmitWait for one arrival under its own admission
// policy (and, for the market, its own Recovery) — the shared cluster's
// entry point, which POST /v1/submit calls with the arrival at Now. The
// returned admission outcome is the running attempt's own record, which
// the arbiter never writes again, so no copy is made; its QueueSeconds is
// Start - Arrival. A query that can never be admitted is rejected and
// leaves no trace in the queues.
func (a *Arbiter) SubmitWaitWith(arr Arrival) (*Outcome, error) {
	p, err := a.submit(arr)
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
