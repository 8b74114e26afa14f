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

// TenantConfig describes one tenant sharing the market.
type TenantConfig struct {
	Name string
	// Weight is the fair-share weight over the pool's total live
	// capacity; <= 0 means 1.
	Weight float64
	// MaxInFlight caps concurrently running queries; <= 0 unlimited.
	MaxInFlight int
	// MaxQueue caps waiting queries; <= 0 unlimited.
	MaxQueue int
	// BudgetCapUSD is the tenant's spend cap; once the tenant's
	// attributed allocation bill reaches it, admission switches to the
	// OnCap behavior. 0 means uncapped.
	BudgetCapUSD units.USD
	OnCap        OnCap
}

// Config assembles a cloud Arbiter.
type Config struct {
	Market Market
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
	Optimizer  *core.Optimizer
	Queries    map[string]*plan.Query
	Tenants    []TenantConfig
	Faults     FaultConfig
	Autoscaler AutoscalerConfig
	Metrics    *Metrics
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
	Tenant   string
	Query    string
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
	Rejected  int64   `json:"rejected"`
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

// ErrRejected wraps every backpressure rejection.
var ErrRejected = errors.New("cloud: submission rejected")

// UnknownError reports a submission naming an unknown tenant or query.
type UnknownError struct {
	Kind string // "tenant" or "query"
	Name string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("cloud: unknown %s %q", e.Kind, e.Name)
}

type pending struct {
	arr Arrival
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
	admitted     *Outcome
}

type running struct {
	p           *pending
	ts          *tenantState
	class       int
	start       float64
	execSeconds float64
	containers  int
	containerGB float64
	degraded    bool
	replanned   bool
	straggler   bool
}

type tenantState struct {
	cfg     TenantConfig
	queue   []*pending
	running int
	held    int // containers currently allocated across classes
	billed  units.USD
}

// Arbiter is the cloud workload arbiter: the two-round fair-share
// admission loop of internal/arbiter generalized to a multi-class priced
// pool with fault injection, recovery policies and autoscaling. It is
// not safe for concurrent use; the HTTP layer serializes with a mutex.
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
	pref        []int // class indices in admission-preference order
	totalWeight float64
	joinBuf     []*plan.Node
	drawSeq     int64

	submitted        int64
	rejectedSubmit   int64
	rejectedDrain    int64
	preemptions      int64
	stormPreemptions int64
	oomAborts        int64
	stragglers       int64
	recovered        [3]int64 // by Recovery
	degradeStalls    int64
	scaleUps         int64
	scaleDowns       int64
}

// New validates the configuration and builds an idle cloud arbiter.
func New(cfg Config) (*Arbiter, error) {
	if err := cfg.Base.Validate(); err != nil {
		return nil, fmt.Errorf("cloud: base conditions: %w", err)
	}
	if cfg.Optimizer == nil {
		return nil, fmt.Errorf("cloud: optimizer required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("cloud: at least one tenant required")
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("cloud: no queries registered")
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
	a := &Arbiter{
		cfg:      cfg,
		pool:     pool,
		inj:      inj,
		scaler:   scaler,
		reopt:    core.NewIncremental(cfg.Optimizer),
		byName:   make(map[string]*tenantState, len(cfg.Tenants)),
		inflight: make(map[int64]*running),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("cloud: tenant with empty name")
		}
		if _, dup := a.byName[tc.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate tenant %q", tc.Name)
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

// Completed returns the outcomes recorded so far, in completion order.
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

// Stats summarizes the arbiter's current state.
func (a *Arbiter) Stats() Stats {
	st := Stats{
		Now:              a.pool.Now(),
		Completed:        len(a.completed),
		InFlight:         len(a.inflight),
		Queued:           a.queuedCount(),
		Submitted:        a.submitted,
		Rejected:         a.rejectedSubmit + a.rejectedDrain,
		Preemptions:      a.preemptions,
		StormPreemptions: a.stormPreemptions,
		OOMAborts:        a.oomAborts,
		Stragglers:       a.stragglers,
		RecoveredReopt:   a.recovered[RecoverReoptimize],
		RecoveredOnDem:   a.recovered[RecoverOnDemand],
		RecoveredDegrade: a.recovered[RecoverDegrade],
		DegradeStalls:    a.degradeStalls,
		ScaleUps:         a.scaleUps,
		ScaleDowns:       a.scaleDowns,
		Capacity:         a.pool.Capacity(),
		Free:             a.pool.Free(),
		SpendUSD:         a.pool.SpendUSD(),
		Classes:          a.pool.Stats(),
	}
	st.Lost = a.submitted - int64(st.Completed) - int64(st.InFlight) - int64(st.Queued) - a.rejectedDrain
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

// reject counts one submission-time rejection and wraps ErrRejected.
func (a *Arbiter) reject(format string, args ...interface{}) error {
	a.rejectedSubmit++
	if m := a.cfg.Metrics; m != nil {
		m.Rejections.Inc()
	}
	return fmt.Errorf("%w: %s", ErrRejected, fmt.Sprintf(format, args...))
}

// Submit enqueues one arrival. Times before the virtual now are clamped.
func (a *Arbiter) Submit(arr Arrival) error {
	ts, ok := a.byName[arr.Tenant]
	if !ok {
		return &UnknownError{Kind: "tenant", Name: arr.Tenant}
	}
	q, ok := a.cfg.Queries[arr.Query]
	if !ok {
		return &UnknownError{Kind: "query", Name: arr.Query}
	}
	if arr.Recovery != RecoverReoptimize && arr.Recovery != RecoverOnDemand && arr.Recovery != RecoverDegrade {
		return &UnknownError{Kind: "recovery", Name: arr.Recovery.String()}
	}
	if arr.Time < a.pool.Now() {
		arr.Time = a.pool.Now()
	}
	if ts.cfg.MaxQueue > 0 && len(ts.queue) >= ts.cfg.MaxQueue {
		return a.reject("tenant %s queue full (%d)", arr.Tenant, ts.cfg.MaxQueue)
	}
	// The submission-time plan is optimized under the full Base
	// conditions; the memo answers after a query's first submission.
	dec, _, err := a.reopt.Optimize(q, a.cfg.Base)
	if err != nil {
		return err
	}
	gang := scheduler.MaxRequested(dec.Plan)
	if gang.Containers < 1 {
		gang.Containers = 1
	}
	ts.queue = append(ts.queue, &pending{
		arr: arr, q: q, dec: dec, gangHint: gang.Containers, lastRevokeAt: -1,
	})
	a.submitted++
	return nil
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
			return fmt.Errorf("cloud: released unknown allocation %d", rel.Token)
		}
		delete(a.inflight, rel.Token)
		ts := run.ts
		ts.running--
		ts.held -= rel.Containers
		p := run.p
		bill := gangBill(a.pool.Class(run.class).Price, rel.Containers, rel.Finish-run.start)
		p.billUSD += bill
		ts.billed += bill
		out := Outcome{
			Tenant:       p.arr.Tenant,
			Query:        p.arr.Query,
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
		p.admitted = &out
		a.completed = append(a.completed, out)
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
	ts := run.ts
	ts.running--
	ts.held -= rel.Containers
	p := run.p
	bill := gangBill(a.pool.Class(run.class).Price, rel.Containers, at-run.start)
	p.billUSD += bill
	ts.billed += bill
	m := a.cfg.Metrics
	switch kind {
	case FaultPreempt:
		p.preemptions++
		a.preemptions++
		if storm {
			a.stormPreemptions++
		}
		if m != nil {
			m.Preemptions.With(rel.ClassName).Inc()
		}
	case FaultOOM:
		p.oomRetries++
		a.oomAborts++
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
		return 0, fmt.Errorf("cloud: preempt fraction %g outside [0, 1]", fraction)
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

// admitHead tries to place tenant ts's queue head on the cheapest class
// that can run it, honoring recovery restrictions and budget caps.
func (a *Arbiter) admitHead(ts *tenantState, p *pending, fairShare bool) (bool, error) {
	degrade := p.degradeNext
	spotOnly := false
	if a.overCap(ts) && !p.onDemandOnly {
		switch ts.cfg.OnCap {
		case CapDegrade:
			degrade = true
		default:
			spotOnly = true
		}
	}
	tried := false
	for _, ci := range a.pref {
		def := a.pool.Class(ci)
		if p.onDemandOnly && def.Tier == Spot {
			continue
		}
		if spotOnly && def.Tier != Spot {
			continue
		}
		cond, ok := a.condFor(ci, ts, fairShare)
		if !ok {
			continue
		}
		tried = true
		var d *core.Decision
		var replanned bool
		if degrade {
			clamped, buf := scheduler.ClampClone(p.dec.Plan, cond, a.joinBuf)
			a.joinBuf = buf
			d = &core.Decision{Plan: clamped}
		} else {
			dd, _, err := a.reopt.Optimize(p.q, cond)
			if err != nil {
				return false, fmt.Errorf("cloud: re-optimizing %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
			}
			if !scheduler.Fits(dd.Plan, cond) {
				continue
			}
			d = dd
			replanned = !dd.Plan.Equal(p.dec.Plan)
		}
		res, err := a.cfg.Engine.Execute(d.Plan, a.cfg.Pricing)
		if err != nil {
			var oom *execsim.OOMError
			if errors.As(err, &oom) {
				continue // this class's containers are too small; try the next
			}
			return false, fmt.Errorf("cloud: executing %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
		}
		if err := a.place(ts, p, ci, d, res.Seconds, replanned, degrade); err != nil {
			return false, err
		}
		return true, nil
	}
	if degrade && tried {
		a.degradeStalls++
	}
	return false, nil
}

// place admits queue head p on class ci: roll its fault draw, hold the
// gang until its effective finish, schedule any mid-run faults.
func (a *Arbiter) place(ts *tenantState, p *pending, ci int, d *core.Decision, execSeconds float64, replanned, degraded bool) error {
	def := a.pool.Class(ci)
	gang := scheduler.MaxRequested(d.Plan)
	if gang.Containers < 1 {
		gang.Containers = 1
	}
	now := a.pool.Now()
	a.drawSeq++
	draw := a.inj.Draw(a.drawSeq, def.Tier, now, execSeconds)
	tok, err := a.pool.Allocate(ci, gang.Containers, gang.ContainerGB, now+draw.ExecSeconds)
	if err != nil {
		return fmt.Errorf("cloud: %s/%s: %w", p.arr.Tenant, p.arr.Query, err)
	}
	ts.queue = ts.queue[1:]
	ts.running++
	ts.held += gang.Containers
	if draw.Straggler {
		p.straggled = true
		a.stragglers++
		if m := a.cfg.Metrics; m != nil {
			m.Stragglers.Inc()
		}
	}
	if draw.OOMAt >= now {
		a.inj.Schedule(FaultEvent{At: draw.OOMAt, Token: tok, Kind: FaultOOM})
	}
	if draw.PreemptAt >= now {
		a.inj.Schedule(FaultEvent{At: draw.PreemptAt, Token: tok, Kind: FaultPreempt})
	}
	out := Outcome{
		Tenant:       p.arr.Tenant,
		Query:        p.arr.Query,
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
	p.admitted = &out
	a.inflight[tok] = &running{
		p: p, ts: ts, class: ci, start: now, execSeconds: draw.ExecSeconds,
		containers: gang.Containers, containerGB: gang.ContainerGB,
		degraded: degraded, replanned: replanned, straggler: draw.Straggler,
	}
	m := a.cfg.Metrics
	if m != nil {
		m.Admissions.With(tierLabel(def.Tier)).Inc()
		m.QueueWait.Observe(out.QueueSeconds)
	}
	if p.lastRevokeAt >= 0 {
		// This admission is a recovery of a revoked attempt.
		a.recovered[p.arr.Recovery]++
		if m != nil {
			m.Recoveries.With(recoveryLabel(p.arr.Recovery)).Inc()
			m.RecoveryWait.Observe(now - p.lastRevokeAt)
		}
		p.lastRevokeAt = -1
	}
	a.observe()
	return nil
}

// admitRound makes one admission pass over the tenants in config order.
// Admission is FIFO per tenant: a blocked head blocks the queue behind it.
func (a *Arbiter) admitRound(fairShare bool) (bool, error) {
	progress := false
	for _, ts := range a.tenants {
		for len(ts.queue) > 0 {
			if ts.cfg.MaxInFlight > 0 && ts.running >= ts.cfg.MaxInFlight {
				break
			}
			p := ts.queue[0]
			admitted, err := a.admitHead(ts, p, fairShare)
			if err != nil {
				return false, err
			}
			if !admitted {
				break
			}
			progress = true
		}
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

// stalled updates the no-progress counter: an unchanged scheduling state
// only counts toward a stall when autoscaler ticks are the sole remaining
// event source — a pending finish, fault or capacity arrival will move
// state on its own, however many idle ticks fire first.
func (a *Arbiter) stalled(stall *int, changed bool) bool {
	if changed {
		*stall = 0
		return false
	}
	if _, hard := a.nextHardEvent(); hard {
		return false
	}
	*stall++
	return *stall >= maxStall
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
					a.scaleUps++
					if m != nil {
						m.ScaleEvents.With("up").Inc()
					}
				} else {
					a.scaleDowns++
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
	completed, inflight, queued int
	capacity, pendingCap        int
	revocations                 int64
}

func (a *Arbiter) sig() progressSig {
	pend := 0
	for i := 0; i < a.pool.Classes(); i++ {
		pend += a.pool.PendingOf(i)
	}
	return progressSig{
		completed:   len(a.completed),
		inflight:    len(a.inflight),
		queued:      a.queuedCount(),
		capacity:    a.pool.Capacity(),
		pendingCap:  pend,
		revocations: a.preemptions + a.oomAborts,
	}
}

// maxStall is how many consecutive no-progress event iterations the
// loops tolerate before declaring a deadlock: autoscaler ticks fire
// forever while work is queued, so "no events left" alone cannot detect
// an infeasible queue head.
const maxStall = 3

// Run replays a whole arrival stream to completion and returns the
// outcomes in completion order. Backpressure rejections are counted, not
// fatal.
func (a *Arbiter) Run(arrivals []Arrival) ([]Outcome, error) {
	ordered := append([]Arrival(nil), arrivals...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Time < ordered[j].Time })
	next := 0
	stall := 0
	for {
		before := a.sig()
		te, has := a.nextInternalEvent()
		if next < len(ordered) && (!has || ordered[next].Time <= te) {
			te, has = ordered[next].Time, true
		}
		if !has {
			if n := a.queuedCount(); n > 0 {
				return nil, fmt.Errorf("cloud: deadlock with %d queued queries", n)
			}
			break
		}
		if err := a.stepTo(te); err != nil {
			return nil, err
		}
		changed := false
		for next < len(ordered) && ordered[next].Time <= te {
			if err := a.Submit(ordered[next]); err != nil && !errors.Is(err, ErrRejected) {
				return nil, err
			}
			next++
			changed = true // a submission is progress even if admission waits
		}
		if err := a.tryAdmit(); err != nil {
			return nil, err
		}
		if a.stalled(&stall, changed || a.sig() != before) {
			return nil, fmt.Errorf("cloud: stalled with %d queued queries", a.queuedCount())
		}
	}
	return a.completed, nil
}

// SubmitWait submits one query at the current virtual time and advances
// the clock just far enough to admit it, returning the admission outcome
// (whose Finish lies in the virtual future; a later preemption may still
// revoke and re-admit it — the final word is in Completed). This is the
// online path behind POST /v1/cloud/submit.
func (a *Arbiter) SubmitWait(tenant, query string, rec Recovery) (*Outcome, error) {
	arr := Arrival{Tenant: tenant, Query: query, Time: a.pool.Now(), Recovery: rec}
	if err := a.Submit(arr); err != nil {
		return nil, err
	}
	ts := a.byName[tenant]
	p := ts.queue[len(ts.queue)-1]
	stall := 0
	for {
		before := a.sig()
		if err := a.tryAdmit(); err != nil {
			return nil, err
		}
		if p.admitted != nil {
			return p.admitted, nil
		}
		te, ok := a.nextInternalEvent()
		if !ok {
			a.dequeue(ts, p)
			return nil, a.reject("query %s/%s cannot be admitted even on an idle market", tenant, query)
		}
		if err := a.stepTo(te); err != nil {
			return nil, err
		}
		if a.stalled(&stall, a.sig() != before) {
			a.dequeue(ts, p)
			return nil, a.reject("query %s/%s stalled waiting for capacity", tenant, query)
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

// Drain advances the virtual clock past every outstanding finish, fault
// and scale event, admitting queued queries as capacity frees. Queries
// still queued when nothing can move are infeasible and are rejected.
func (a *Arbiter) Drain() error {
	stall := 0
	for {
		before := a.sig()
		if err := a.tryAdmit(); err != nil {
			return err
		}
		te, ok := a.nextInternalEvent()
		if !ok {
			break
		}
		if err := a.stepTo(te); err != nil {
			return err
		}
		if a.stalled(&stall, a.sig() != before) {
			break
		}
	}
	for _, ts := range a.tenants {
		for len(ts.queue) > 0 {
			p := ts.queue[0]
			ts.queue = ts.queue[1:]
			a.rejectedDrain++
			if m := a.cfg.Metrics; m != nil {
				m.Rejections.Inc()
			}
			_ = p
		}
	}
	a.observe()
	return nil
}
