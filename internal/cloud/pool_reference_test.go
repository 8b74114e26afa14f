package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"raqo/internal/cluster"
	"raqo/internal/units"
)

// refPool is Pool as it was before the occupancy of every class moved into
// one cluster.Pool: one single-class occupancy pool (refClassPool) per
// class, each with its own token sequence, a pool-wide token sequence on
// top, maps between the two token spaces, and a merge sort of the classes'
// releases on every Advance. TestPoolMatchesReference and
// FuzzPoolMatchesReference hold Pool to it step for step.
type refPool struct {
	classes []*refClassState
	now     float64
	seq     int64
	refs    map[int64]refAllocRef
	settled []refRelease
}

type refAllocRef struct {
	class      int
	clusterTok int64
}

type refClassState struct {
	def           InstanceClass
	pool          *refClassPool
	provisionedAt []float64
	charged       units.USD
	pendingUp     []pendingCap
	toCloud       map[int64]int64
}

type refRelease struct {
	Token       int64
	Class       int
	Finish      float64
	Containers  int
	ContainerGB float64
}

func newRefPool(m Market) (*refPool, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := &refPool{refs: make(map[int64]refAllocRef)}
	for _, def := range m.Classes {
		p.classes = append(p.classes, &refClassState{
			def:           def,
			pool:          &refClassPool{capacity: def.Count, free: def.Count},
			provisionedAt: make([]float64, def.Count),
			toCloud:       make(map[int64]int64),
		})
	}
	return p, nil
}

func (p *refPool) PendingOf(i int) int {
	n := 0
	for _, pc := range p.classes[i].pendingUp {
		n += pc.n
	}
	return n
}

func (p *refPool) Allocate(class, containers int, gbEach, finish float64) (int64, error) {
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
	p.refs[tok] = refAllocRef{class: class, clusterTok: ctok}
	cs.toCloud[ctok] = tok
	return tok, nil
}

func (p *refPool) Revoke(token int64) (refRelease, bool) {
	ref, ok := p.refs[token]
	if !ok {
		return refRelease{}, false
	}
	cs := p.classes[ref.class]
	rel, ok := cs.pool.Revoke(ref.clusterTok)
	if !ok {
		return refRelease{}, false
	}
	delete(p.refs, token)
	delete(cs.toCloud, ref.clusterTok)
	return refRelease{Token: token, Class: ref.class, Finish: rel.finish, Containers: rel.containers, ContainerGB: rel.gbEach}, true
}

func (p *refPool) RunningSpot() []int64 {
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

func (p *refPool) Advance(t float64) []refRelease {
	if t > p.now {
		p.now = t
	}
	out := p.settled[:0]
	for i, cs := range p.classes {
		landed := 0
		for ; landed < len(cs.pendingUp) && cs.pendingUp[landed].at <= p.now; landed++ {
			pc := cs.pendingUp[landed]
			if err := cs.pool.SetCapacity(cs.pool.capacity + pc.n); err != nil {
				continue
			}
			for k := 0; k < pc.n; k++ {
				cs.provisionedAt = append(cs.provisionedAt, pc.at)
			}
		}
		cs.pendingUp = slices.Delete(cs.pendingUp, 0, landed)
		for _, rel := range cs.pool.Advance(t) {
			tok := cs.toCloud[rel.token]
			delete(cs.toCloud, rel.token)
			delete(p.refs, tok)
			out = append(out, refRelease{Token: tok, Class: i, Finish: rel.finish, Containers: rel.containers, ContainerGB: rel.gbEach})
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

func (p *refPool) NextFinish() (float64, bool) {
	best, ok := 0.0, false
	for _, cs := range p.classes {
		if f, has := cs.pool.NextFinish(); has && (!ok || f < best) {
			best, ok = f, true
		}
	}
	return best, ok
}

func (p *refPool) NextCapacity() (float64, bool) {
	best, ok := 0.0, false
	for _, cs := range p.classes {
		if len(cs.pendingUp) > 0 && (!ok || cs.pendingUp[0].at < best) {
			best, ok = cs.pendingUp[0].at, true
		}
	}
	return best, ok
}

func (p *refPool) NextEvent() (float64, bool) {
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

func (p *refPool) ScaleUp(i, n int, lagSeconds float64) {
	if n < 1 {
		return
	}
	cs := p.classes[i]
	if lagSeconds <= 0 {
		if err := cs.pool.SetCapacity(cs.pool.capacity + n); err != nil {
			return
		}
		for k := 0; k < n; k++ {
			cs.provisionedAt = append(cs.provisionedAt, p.now)
		}
		return
	}
	at := p.now + lagSeconds
	j := sort.Search(len(cs.pendingUp), func(j int) bool { return cs.pendingUp[j].at > at })
	cs.pendingUp = slices.Insert(cs.pendingUp, j, pendingCap{at: at, n: n})
}

func (p *refPool) ScaleDown(i, n int, granuleSeconds float64) int {
	cs := p.classes[i]
	k := n
	if free := cs.pool.free; k > free {
		k = free
	}
	if max := cs.pool.capacity - 1; k > max {
		k = max
	}
	if k < 1 {
		return 0
	}
	if err := cs.pool.SetCapacity(cs.pool.capacity - k); err != nil {
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

func (p *refPool) SpendOf(i int) units.USD {
	cs := p.classes[i]
	total := cs.charged
	for _, at := range cs.provisionedAt {
		total += cs.def.Price.Over(p.now - at)
	}
	return total
}

// refClassPool is cluster.Pool as it was with one class per pool: its
// own capacity, free count, held GB, clock and token sequence.
type refClassPool struct {
	capacity int
	free     int
	heldGB   float64
	now      float64
	seq      int64
	running  []refAlloc
	released []refAlloc
}

type refAlloc struct {
	finish     float64
	containers int
	gbEach     float64
	token      int64
}

func (p *refClassPool) NextFinish() (float64, bool) {
	if len(p.running) == 0 {
		return 0, false
	}
	return p.running[0].finish, true
}

func (p *refClassPool) Allocate(containers int, gbEach, finish float64) (int64, error) {
	if containers < 1 || containers > p.free {
		return 0, fmt.Errorf("cluster: allocating %d containers with %d free", containers, p.free)
	}
	if gbEach < 0 {
		return 0, fmt.Errorf("cluster: negative container size %g", gbEach)
	}
	if finish < p.now {
		return 0, fmt.Errorf("cluster: allocation finishing at %g before virtual now %g", finish, p.now)
	}
	p.seq++
	tok := p.seq
	p.free -= containers
	p.heldGB += float64(containers) * gbEach
	i := sort.Search(len(p.running), func(i int) bool { return p.running[i].finish > finish })
	p.running = slices.Insert(p.running, i, refAlloc{finish: finish, containers: containers, gbEach: gbEach, token: tok})
	return tok, nil
}

func (p *refClassPool) Advance(t float64) []refAlloc {
	if t > p.now {
		p.now = t
	}
	out := p.released[:0]
	due := 0
	for ; due < len(p.running) && p.running[due].finish <= p.now; due++ {
		a := p.running[due]
		p.free += a.containers
		p.heldGB -= float64(a.containers) * a.gbEach
		out = append(out, a)
	}
	p.running = slices.Delete(p.running, 0, due)
	if len(p.running) == 0 || p.heldGB < 0 {
		p.heldGB = 0
	}
	p.released = out
	return out
}

func (p *refClassPool) Revoke(token int64) (refAlloc, bool) {
	for i := range p.running {
		if p.running[i].token != token {
			continue
		}
		a := p.running[i]
		p.running = slices.Delete(p.running, i, i+1)
		p.free += a.containers
		p.heldGB -= float64(a.containers) * a.gbEach
		if len(p.running) == 0 || p.heldGB < 0 {
			p.heldGB = 0
		}
		return a, true
	}
	return refAlloc{}, false
}

func (p *refClassPool) SetCapacity(n int) error {
	if n < 1 {
		return fmt.Errorf("cluster: pool capacity %d < 1", n)
	}
	if inUse := p.capacity - p.free; n < inUse {
		return fmt.Errorf("cluster: shrinking capacity to %d below %d containers in use", n, inUse)
	}
	p.free += n - p.capacity
	p.capacity = n
	return nil
}

// oracleMarket has an on-demand class and two spot classes, small enough
// that gangs exhaust them, with container sizes whose sums drift in
// float64.
var oracleMarket = Market{Classes: []InstanceClass{
	{Name: "od", Tier: OnDemand, ContainerGB: 2.9, Count: 5, Price: OnDemandRate(2.9)},
	{Name: "spot-a", Tier: Spot, ContainerGB: 1.7, Count: 4, Price: SpotRate(1.7, 0.7)},
	{Name: "spot-b", Tier: Spot, ContainerGB: 0.3, Count: 3, Price: SpotRate(0.3, 0.6)},
}}

// oracleGB are the container sizes the oracle asks for; 2.5 and 3.1
// exceed some classes' sizes.
var oracleGB = []float64{0.1, 0.3, 0.7, 1.7, 2.5, 3.1}

// byteOps reads a step sequence from bytes; past the end it reads zeros.
type byteOps []byte

func (b *byteOps) next(n int) int {
	if len(*b) == 0 || n <= 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// checkPoolMatchesReference drives Pool and refPool through the step
// sequence ops encodes — allocations with tied finishes across classes,
// advances (to the next event or a step past it), revokes (of running,
// finished and unknown tokens, and of a gang at its own finish instant),
// scale-ups with and without lag, scale-downs — and after every step
// compares releases (token, class, finish, containers, GB), per-class
// capacity, free, pending, held GB (by bits) and spend, NextEvent and
// RunningSpot.
func checkPoolMatchesReference(t *testing.T, ops []byte) {
	t.Helper()
	p, err := NewPool(oracleMarket)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefPool(oracleMarket)
	if err != nil {
		t.Fatal(err)
	}
	sameRel := func(got cluster.Release, want refRelease) bool {
		return got.Token == want.Token && got.Class == want.Class &&
			math.Float64bits(got.Finish) == math.Float64bits(want.Finish) &&
			got.Containers == want.Containers &&
			math.Float64bits(got.GBEach) == math.Float64bits(want.ContainerGB)
	}
	sameAdvance := func(step int, t0 float64) []cluster.Release {
		got, want := p.Advance(t0), ref.Advance(t0)
		if len(got) != len(want) {
			t.Fatalf("step %d: Advance(%g) released %+v, reference %+v", step, t0, got, want)
		}
		for i := range got {
			if !sameRel(got[i], want[i]) {
				t.Fatalf("step %d: Advance(%g) release %d is %+v, reference %+v", step, t0, i, got[i], want[i])
			}
		}
		return got
	}
	sameRevoke := func(step int, tok int64) {
		got, ok := p.Revoke(tok)
		want, wantOK := ref.Revoke(tok)
		if ok != wantOK || (ok && !sameRel(got, want)) {
			t.Fatalf("step %d: Revoke(%d) = %+v, %v; reference %+v, %v", step, tok, got, ok, want, wantOK)
		}
	}
	var issued []int64
	b := byteOps(ops)
	for step := 0; len(b) > 0; step++ {
		now := p.Now()
		switch op := b.next(7); op {
		case 0, 1: // allocate, finishing on a coarse grid so finishes tie across classes
			c := b.next(p.Classes())
			n := 1 + b.next(p.FreeOf(c)+1) // one past free: both refuse
			gb := oracleGB[b.next(len(oracleGB))]
			finish := now + float64(b.next(4))
			tok, err := p.Allocate(c, n, gb, finish)
			wantTok, wantErr := ref.Allocate(c, n, gb, finish)
			if tok != wantTok || (err == nil) != (wantErr == nil) {
				t.Fatalf("step %d: Allocate(%d, %d, %g, %g) = %d, %v; reference %d, %v", step, c, n, gb, finish, tok, err, wantTok, wantErr)
			}
			if err == nil {
				issued = append(issued, tok)
			}
		case 2: // advance by a step
			sameAdvance(step, now+float64(b.next(3)))
		case 3: // advance to the next event
			if at, ok := p.NextEvent(); ok {
				sameAdvance(step, at)
			}
		case 4: // revoke an issued token (running or finished) or an unknown one
			tok := int64(len(issued) + 1)
			if len(issued) > 0 && b.next(4) > 0 {
				tok = issued[b.next(len(issued))]
			}
			sameRevoke(step, tok)
		case 5: // a finish and a revoke at the same instant: finish wins
			if at, ok := p.occ.NextFinish(); ok {
				rels := sameAdvance(step, at) // every one finishes at at
				sameRevoke(step, rels[b.next(len(rels))].Token)
			}
		case 6: // scale a class up (with or without lag) or down
			c := b.next(p.Classes())
			n := b.next(5)
			if b.next(2) == 0 {
				lag := float64(b.next(3))
				p.ScaleUp(c, n, lag)
				ref.ScaleUp(c, n, lag)
				break
			}
			granule := float64(60 * b.next(2))
			if got, want := p.ScaleDown(c, n, granule), ref.ScaleDown(c, n, granule); got != want {
				t.Fatalf("step %d: ScaleDown(%d, %d, %g) = %d, reference %d", step, c, n, granule, got, want)
			}
		}
		for i, cs := range ref.classes {
			if p.CapacityOf(i) != cs.pool.capacity || p.FreeOf(i) != cs.pool.free || p.PendingOf(i) != ref.PendingOf(i) {
				t.Fatalf("step %d: class %d capacity/free/pending %d/%d/%d, reference %d/%d/%d", step, i,
					p.CapacityOf(i), p.FreeOf(i), p.PendingOf(i), cs.pool.capacity, cs.pool.free, ref.PendingOf(i))
			}
			if got, want := p.occ.HeldGB(i), cs.pool.heldGB; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: class %d held %v GB, reference %v", step, i, got, want)
			}
			if got, want := p.SpendOf(i), ref.SpendOf(i); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("step %d: class %d spend %v, reference %v", step, i, got, want)
			}
		}
		gotAt, gotOK := p.NextEvent()
		wantAt, wantOK := ref.NextEvent()
		if gotAt != wantAt || gotOK != wantOK {
			t.Fatalf("step %d: NextEvent %g, %v; reference %g, %v", step, gotAt, gotOK, wantAt, wantOK)
		}
		if got, want := p.RunningSpot(), ref.RunningSpot(); !slices.Equal(got, want) {
			t.Fatalf("step %d: RunningSpot %v, reference %v", step, got, want)
		}
	}
}

// TestPoolMatchesReference runs long random step sequences through
// checkPoolMatchesReference.
func TestPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seq := 0; seq < 200; seq++ {
		ops := make([]byte, 1500)
		rng.Read(ops)
		checkPoolMatchesReference(t, ops)
	}
}

// FuzzPoolMatchesReference runs arbitrary step sequences through
// checkPoolMatchesReference.
func FuzzPoolMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 1, 2, 2, 0, 0, 2, 3, 2, 3, 5})
	f.Add([]byte{6, 1, 3, 0, 2, 0, 1, 2, 0, 1, 3, 4, 1, 3, 6, 0, 2, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) { checkPoolMatchesReference(t, ops) })
}
