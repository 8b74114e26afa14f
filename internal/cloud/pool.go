package cloud

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"raqo/internal/cluster"
	"raqo/internal/units"
)

// Pool is the market's view of a cluster.Pool: the occupancy pool holds
// every class's containers, allocations and release order under one token
// sequence and one virtual clock, and Pool adds what the market prices —
// the class definitions, a provisioning ledger that accrues dollar cost
// per provisioned container-hour (allocated or idle), and the scale-up
// orders. Capacity is elastic: scale-up orders arrive after a
// provisioning lag, scale-downs remove idle containers and settle their
// bill rounded up to the billing granule.
//
// Pool is not safe for concurrent use; its owner is a single-threaded
// discrete-event loop.
type Pool struct {
	occ     *cluster.Pool
	classes []*classState
}

type pendingCap struct {
	at float64
	n  int
}

type classState struct {
	def InstanceClass
	// provisionedAt holds one start-of-billing timestamp per live
	// container, in provisioning order; scale-down settles from the tail
	// (youngest first), so long-lived capacity keeps its cheap ledger slot.
	provisionedAt []float64
	charged       units.USD    // bill settled for removed containers
	pendingUp     []pendingCap // ordered by arrival time
}

// ClassStats is a point-in-time summary of one class.
type ClassStats struct {
	Name     string    `json:"name"`
	Tier     string    `json:"tier"`
	Capacity int       `json:"capacity"`
	Free     int       `json:"free"`
	InUse    int       `json:"in_use"`
	Pending  int       `json:"pending"`
	SpendUSD units.USD `json:"spend_usd"`
}

// NewPool builds an idle pool from a validated market at virtual time 0.
func NewPool(m Market) (*Pool, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	counts := make([]int, len(m.Classes))
	p := &Pool{}
	for i, def := range m.Classes {
		counts[i] = def.Count
		p.classes = append(p.classes, &classState{def: def, provisionedAt: make([]float64, def.Count)})
	}
	occ, err := cluster.NewPool(counts...)
	if err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	p.occ = occ
	return p, nil
}

// Now returns the pool's virtual clock.
func (p *Pool) Now() float64 { return p.occ.Now() }

// Classes returns the number of instance classes.
func (p *Pool) Classes() int { return len(p.classes) }

// Class returns the class definition at index i.
func (p *Pool) Class(i int) InstanceClass { return p.classes[i].def }

// CapacityOf returns the live provisioned containers of class i.
func (p *Pool) CapacityOf(i int) int { return p.occ.Capacity(i) }

// FreeOf returns the currently unallocated containers of class i.
func (p *Pool) FreeOf(i int) int { return p.occ.Free(i) }

// PendingOf returns the containers ordered for class i but not yet
// arrived (scale-up lag).
func (p *Pool) PendingOf(i int) int {
	n := 0
	for _, pc := range p.classes[i].pendingUp {
		n += pc.n
	}
	return n
}

// Capacity sums the live provisioned containers across classes.
func (p *Pool) Capacity() int {
	n := 0
	for i := range p.classes {
		n += p.occ.Capacity(i)
	}
	return n
}

// Free sums the unallocated containers across classes.
func (p *Pool) Free() int {
	n := 0
	for i := range p.classes {
		n += p.occ.Free(i)
	}
	return n
}

// InUse sums the allocated containers across classes.
func (p *Pool) InUse() int { return p.Capacity() - p.Free() }

// HeldGB sums the memory of the held containers across classes.
func (p *Pool) HeldGB() float64 {
	gb := 0.0
	for i := range p.classes {
		gb += p.occ.HeldGB(i)
	}
	return gb
}

// Allocate holds a gang of containers of the given class until the
// virtual finish time and returns the allocation's token.
func (p *Pool) Allocate(class, containers int, gbEach, finish float64) (int64, error) {
	if class < 0 || class >= len(p.classes) {
		return 0, fmt.Errorf("cloud: unknown class index %d", class)
	}
	def := p.classes[class].def
	if gbEach > def.ContainerGB+1e-9 {
		return 0, fmt.Errorf("cloud: class %s: container size %g exceeds class size %g",
			def.Name, gbEach, def.ContainerGB)
	}
	tok, err := p.occ.Allocate(class, containers, gbEach, finish)
	if err != nil {
		return 0, fmt.Errorf("cloud: class %s: %w", def.Name, err)
	}
	return tok, nil
}

// Revoke removes a still-running allocation (spot preemption, mid-run
// abort) and returns its containers to its class. A token already
// released reports ok=false — finish wins at the same virtual instant
// once the caller advanced (cluster.Pool.Revoke).
func (p *Pool) Revoke(token int64) (cluster.Release, bool) { return p.occ.Revoke(token) }

// RunningSpot returns the tokens of the allocations currently running on
// spot classes, in allocation order — the deterministic victim order of
// a preemption storm.
func (p *Pool) RunningSpot() []int64 {
	return p.occ.RunningTokens(func(c int) bool { return p.classes[c].def.Tier == Spot })
}

// Advance moves the virtual clock to t (never backwards), releases every
// allocation finishing at or before t in the occupancy pool's (finish,
// token) order, and lands every scale-up order due by t. The returned
// slice is valid until the next Advance.
func (p *Pool) Advance(t float64) []cluster.Release {
	out := p.occ.Advance(t)
	now := p.occ.Now()
	for i, cs := range p.classes {
		landed := 0
		for ; landed < len(cs.pendingUp) && cs.pendingUp[landed].at <= now; landed++ {
			p.provision(i, cs.pendingUp[landed].n, cs.pendingUp[landed].at)
		}
		cs.pendingUp = slices.Delete(cs.pendingUp, 0, landed)
	}
	return out
}

// provision adds n live containers to class i, billed from at.
func (p *Pool) provision(i, n int, at float64) {
	if err := p.occ.SetCapacity(i, p.occ.Capacity(i)+n); err != nil {
		return // growing never fails; keep the ledger consistent anyway
	}
	cs := p.classes[i]
	for k := 0; k < n; k++ {
		cs.provisionedAt = append(cs.provisionedAt, at)
	}
}

// NextCapacity returns the earliest pending scale-up arrival, if any.
func (p *Pool) NextCapacity() (float64, bool) {
	best, ok := 0.0, false
	for _, cs := range p.classes {
		if len(cs.pendingUp) > 0 && (!ok || cs.pendingUp[0].at < best) {
			best, ok = cs.pendingUp[0].at, true
		}
	}
	return best, ok
}

// NextEvent returns the earliest of the next allocation finish and
// NextCapacity.
func (p *Pool) NextEvent() (float64, bool) {
	f, hasF := p.occ.NextFinish()
	c, hasC := p.NextCapacity()
	switch {
	case hasF && hasC:
		if c < f {
			return c, true
		}
		return f, true
	case hasF:
		return f, true
	case hasC:
		return c, true
	}
	return 0, false
}

// ConditionsFor derives the conditions class i can offer right now: the
// base conditions with the memory axis capped at the class's container
// size and the container axis capped at the class's free count. ok is
// false when the class admits no resource point at all.
func (p *Pool) ConditionsFor(i int, base cluster.Conditions) (cluster.Conditions, bool) {
	cond := base
	if gb := p.classes[i].def.ContainerGB; gb < cond.MaxContainerGB {
		cond.MaxContainerGB = gb
	}
	if cond.MaxContainerGB < cond.MinContainerGB {
		return cluster.Conditions{}, false
	}
	return p.occ.Conditions(i, cond)
}

// ScaleUp orders n more containers of class i; they arrive (become free
// capacity) after lagSeconds of virtual time. Lag <= 0 provisions
// immediately.
func (p *Pool) ScaleUp(i, n int, lagSeconds float64) {
	if n < 1 {
		return
	}
	if lagSeconds <= 0 {
		p.provision(i, n, p.occ.Now())
		return
	}
	// After every order arriving no later: tied arrivals land in order.
	cs := p.classes[i]
	at := p.occ.Now() + lagSeconds
	j := sort.Search(len(cs.pendingUp), func(j int) bool { return cs.pendingUp[j].at > at })
	cs.pendingUp = slices.Insert(cs.pendingUp, j, pendingCap{at: at, n: n})
}

// ScaleDown removes up to n idle containers of class i, youngest first,
// settling each one's bill rounded up to the billing granule. It returns
// the containers actually removed (bounded by the free count).
func (p *Pool) ScaleDown(i, n int, granuleSeconds float64) int {
	cs := p.classes[i]
	k := n
	if free := p.occ.Free(i); k > free {
		k = free
	}
	if max := p.occ.Capacity(i) - 1; k > max {
		k = max // a class keeps at least one container
	}
	if k < 1 {
		return 0
	}
	if err := p.occ.SetCapacity(i, p.occ.Capacity(i)-k); err != nil {
		return 0
	}
	for j := 0; j < k; j++ {
		last := len(cs.provisionedAt) - 1
		lived := p.occ.Now() - cs.provisionedAt[last]
		cs.provisionedAt = cs.provisionedAt[:last]
		if granuleSeconds > 0 {
			lived = math.Ceil(lived/granuleSeconds) * granuleSeconds
			if lived < granuleSeconds {
				lived = granuleSeconds
			}
		}
		cs.charged += cs.def.Price.Over(lived)
	}
	return k
}

// SpendOf returns class i's capacity bill accrued to the current virtual
// time: settled removals plus the live containers' running meters.
func (p *Pool) SpendOf(i int) units.USD {
	cs := p.classes[i]
	total := cs.charged
	for _, at := range cs.provisionedAt {
		total += cs.def.Price.Over(p.occ.Now() - at)
	}
	return total
}

// SpendUSD returns the total capacity bill accrued to the current
// virtual time across classes.
func (p *Pool) SpendUSD() units.USD {
	var total units.USD
	for i := range p.classes {
		total += p.SpendOf(i)
	}
	return total
}

// Stats snapshots every class in market order.
func (p *Pool) Stats() []ClassStats {
	out := make([]ClassStats, len(p.classes))
	for i, cs := range p.classes {
		out[i] = ClassStats{
			Name:     cs.def.Name,
			Tier:     cs.def.Tier.String(),
			Capacity: p.occ.Capacity(i),
			Free:     p.occ.Free(i),
			InUse:    p.occ.InUse(i),
			Pending:  p.PendingOf(i),
			SpendUSD: p.SpendOf(i),
		}
	}
	return out
}
