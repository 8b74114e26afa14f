package cloud

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"raqo/internal/cluster"
	"raqo/internal/units"
)

// Pool is the multi-class priced generalization of cluster.Pool: one
// occupancy pool per instance class sharing a single virtual clock and a
// single global allocation-token sequence, with a provisioning ledger
// that accrues dollar cost per provisioned container-hour — allocated or
// idle. Capacity is elastic: scale-up orders arrive after a provisioning
// lag, scale-downs remove idle containers and settle their bill rounded
// up to the billing granule.
//
// Pool is not safe for concurrent use; its owner is a single-threaded
// discrete-event loop.
type Pool struct {
	classes []*classState
	now     float64
	seq     int64
	refs    map[int64]allocRef // cloud token -> location; never ranged
	settled []Release          // Advance's answer, reused by the next call
}

type allocRef struct {
	class      int
	clusterTok int64
}

type pendingCap struct {
	at float64
	n  int
}

type classState struct {
	def  InstanceClass
	pool *cluster.Pool
	// provisionedAt holds one start-of-billing timestamp per live
	// container, in provisioning order; scale-down settles from the tail
	// (youngest first), so long-lived capacity keeps its cheap ledger slot.
	provisionedAt []float64
	charged       units.USD    // bill settled for removed containers
	pendingUp     []pendingCap // ordered by arrival time
	toCloud       map[int64]int64
}

// Release reports one allocation returned to the pool, by finishing or
// by revocation.
type Release struct {
	Token       int64
	Class       int
	ClassName   string
	Tier        Tier
	Finish      float64 // the allocation's scheduled finish time
	Containers  int
	ContainerGB float64
	Revoked     bool
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
	p := &Pool{refs: make(map[int64]allocRef)}
	for _, def := range m.Classes {
		cp, err := cluster.NewPool(def.Count)
		if err != nil {
			return nil, fmt.Errorf("cloud: class %s: %w", def.Name, err)
		}
		cs := &classState{
			def:           def,
			pool:          cp,
			provisionedAt: make([]float64, def.Count),
			toCloud:       make(map[int64]int64),
		}
		p.classes = append(p.classes, cs)
	}
	return p, nil
}

// Now returns the pool's virtual clock.
func (p *Pool) Now() float64 { return p.now }

// Classes returns the number of instance classes.
func (p *Pool) Classes() int { return len(p.classes) }

// Class returns the class definition at index i.
func (p *Pool) Class(i int) InstanceClass { return p.classes[i].def }

// CapacityOf returns the live provisioned containers of class i.
func (p *Pool) CapacityOf(i int) int { return p.classes[i].pool.Capacity() }

// FreeOf returns the currently unallocated containers of class i.
func (p *Pool) FreeOf(i int) int { return p.classes[i].pool.Free() }

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
	for _, cs := range p.classes {
		n += cs.pool.Capacity()
	}
	return n
}

// Free sums the unallocated containers across classes.
func (p *Pool) Free() int {
	n := 0
	for _, cs := range p.classes {
		n += cs.pool.Free()
	}
	return n
}

// InUse sums the allocated containers across classes.
func (p *Pool) InUse() int { return p.Capacity() - p.Free() }

// HeldGB sums the memory of the held containers across classes.
func (p *Pool) HeldGB() float64 {
	gb := 0.0
	for _, cs := range p.classes {
		gb += cs.pool.HeldGB()
	}
	return gb
}

// Allocate holds a gang of containers of the given class until the
// virtual finish time and returns the allocation's pool-wide token.
func (p *Pool) Allocate(class, containers int, gbEach, finish float64) (int64, error) {
	if class < 0 || class >= len(p.classes) {
		return 0, fmt.Errorf("cloud: unknown class index %d", class)
	}
	cs := p.classes[class]
	if gbEach > cs.def.ContainerGB+1e-9 {
		return 0, fmt.Errorf("cloud: class %s: container size %g exceeds class size %g",
			cs.def.Name, gbEach, cs.def.ContainerGB)
	}
	ctok, err := cs.pool.Allocate(containers, gbEach, finish)
	if err != nil {
		return 0, fmt.Errorf("cloud: class %s: %w", cs.def.Name, err)
	}
	p.seq++
	tok := p.seq
	p.refs[tok] = allocRef{class: class, clusterTok: ctok}
	cs.toCloud[ctok] = tok
	return tok, nil
}

// Revoke removes a still-running allocation (spot preemption, mid-run
// abort) and returns its containers to its class. Like
// cluster.Pool.Revoke, a token already released reports ok=false —
// finish wins at the same virtual instant once the caller advanced.
func (p *Pool) Revoke(token int64) (Release, bool) {
	ref, ok := p.refs[token]
	if !ok {
		return Release{}, false
	}
	cs := p.classes[ref.class]
	rel, ok := cs.pool.Revoke(ref.clusterTok)
	if !ok {
		return Release{}, false
	}
	delete(p.refs, token)
	delete(cs.toCloud, ref.clusterTok)
	return Release{
		Token:       token,
		Class:       ref.class,
		ClassName:   cs.def.Name,
		Tier:        cs.def.Tier,
		Finish:      rel.Finish,
		Containers:  rel.Containers,
		ContainerGB: rel.GBEach,
		Revoked:     true,
	}, true
}

// RunningSpot appends the tokens of the allocations currently running on
// spot classes, in allocation order — the deterministic victim order of
// a preemption storm.
func (p *Pool) RunningSpot() []int64 {
	var toks []int64
	for _, cs := range p.classes {
		if cs.def.Tier != Spot {
			continue
		}
		for ctok := range cs.toCloud {
			toks = append(toks, cs.toCloud[ctok])
		}
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	return toks
}

// Advance moves the virtual clock to t (never backwards), lands every
// scale-up order due by t, and releases every allocation finishing at or
// before t across all classes, merged into (finish, token) order. The
// returned slice is valid until the next Advance.
func (p *Pool) Advance(t float64) []Release {
	if t > p.now {
		p.now = t
	}
	out := p.settled[:0]
	for i, cs := range p.classes {
		landed := 0
		for ; landed < len(cs.pendingUp) && cs.pendingUp[landed].at <= p.now; landed++ {
			pc := cs.pendingUp[landed]
			if err := cs.pool.SetCapacity(cs.pool.Capacity() + pc.n); err != nil {
				// Growing never fails; keep the ledger consistent anyway.
				continue
			}
			for k := 0; k < pc.n; k++ {
				cs.provisionedAt = append(cs.provisionedAt, pc.at)
			}
		}
		cs.pendingUp = slices.Delete(cs.pendingUp, 0, landed)
		for _, rel := range cs.pool.Advance(t) {
			tok := cs.toCloud[rel.Token]
			delete(cs.toCloud, rel.Token)
			delete(p.refs, tok)
			out = append(out, Release{
				Token:       tok,
				Class:       i,
				ClassName:   cs.def.Name,
				Tier:        cs.def.Tier,
				Finish:      rel.Finish,
				Containers:  rel.Containers,
				ContainerGB: rel.GBEach,
			})
		}
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool {
			if out[i].Finish != out[j].Finish {
				return out[i].Finish < out[j].Finish
			}
			return out[i].Token < out[j].Token
		})
	}
	p.settled = out
	return out
}

// NextFinish returns the earliest outstanding allocation finish across
// classes, if any.
func (p *Pool) NextFinish() (float64, bool) {
	best, ok := 0.0, false
	for _, cs := range p.classes {
		if f, has := cs.pool.NextFinish(); has && (!ok || f < best) {
			best, ok = f, true
		}
	}
	return best, ok
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

// NextEvent returns the earliest of NextFinish and NextCapacity.
func (p *Pool) NextEvent() (float64, bool) {
	f, hasF := p.NextFinish()
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
	cs := p.classes[i]
	cond := base
	if cs.def.ContainerGB < cond.MaxContainerGB {
		cond.MaxContainerGB = cs.def.ContainerGB
	}
	if cond.MaxContainerGB < cond.MinContainerGB {
		return cluster.Conditions{}, false
	}
	return cs.pool.Conditions(cond)
}

// ScaleUp orders n more containers of class i; they arrive (become free
// capacity) after lagSeconds of virtual time. Lag <= 0 provisions
// immediately.
func (p *Pool) ScaleUp(i, n int, lagSeconds float64) {
	if n < 1 {
		return
	}
	cs := p.classes[i]
	if lagSeconds <= 0 {
		if err := cs.pool.SetCapacity(cs.pool.Capacity() + n); err != nil {
			return
		}
		for k := 0; k < n; k++ {
			cs.provisionedAt = append(cs.provisionedAt, p.now)
		}
		return
	}
	// After every order arriving no later: tied arrivals land in order.
	at := p.now + lagSeconds
	j := sort.Search(len(cs.pendingUp), func(j int) bool { return cs.pendingUp[j].at > at })
	cs.pendingUp = slices.Insert(cs.pendingUp, j, pendingCap{at: at, n: n})
}

// ScaleDown removes up to n idle containers of class i, youngest first,
// settling each one's bill rounded up to the billing granule. It returns
// the containers actually removed (bounded by the free count).
func (p *Pool) ScaleDown(i, n int, granuleSeconds float64) int {
	cs := p.classes[i]
	k := n
	if free := cs.pool.Free(); k > free {
		k = free
	}
	if max := cs.pool.Capacity() - 1; k > max {
		k = max // cluster.Pool keeps at least one container
	}
	if k < 1 {
		return 0
	}
	if err := cs.pool.SetCapacity(cs.pool.Capacity() - k); err != nil {
		return 0
	}
	for j := 0; j < k; j++ {
		last := len(cs.provisionedAt) - 1
		lived := p.now - cs.provisionedAt[last]
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
		total += cs.def.Price.Over(p.now - at)
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
			Capacity: cs.pool.Capacity(),
			Free:     cs.pool.Free(),
			InUse:    cs.pool.InUse(),
			Pending:  p.PendingOf(i),
			SpendUSD: p.SpendOf(i),
		}
	}
	return out
}
