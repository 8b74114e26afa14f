package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Pool tracks the container occupancy of a cluster over virtual time: one
// or more instance classes, each with its own capacity, free count and
// held memory; gang allocations held until their virtual finish times,
// all classes' in one release order under one token sequence; and a
// monotone clock. It is the one occupancy model behind both the Figure-1
// trace simulator (Simulator.Run, one class) and the admission engine of
// both arbiters (the classes of a cloud.Pool), so "how many containers
// are free at virtual time t" has exactly one implementation.
//
// Pool is not safe for concurrent use; its owners are single-threaded
// discrete-event loops.
type Pool struct {
	classes  []classOcc
	now      float64
	seq      int64
	running  []Release // in (finish, token) order: the release order
	released []Release // Advance's answer, reused by the next call
}

// classOcc is one class's occupancy.
type classOcc struct {
	capacity int
	free     int
	heldGB   float64
}

// Release is one gang allocation: held in the pool until its finish time,
// then reported by Advance (or by Revoke, when it is cut short).
type Release struct {
	Token      int64 // allocation order; ties on finish release in this order
	Class      int
	Finish     float64
	Containers int
	GBEach     float64
}

// NewPool builds an idle pool at virtual time 0 with one class per
// capacity given, in that order.
func NewPool(capacities ...int) (*Pool, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("cluster: pool with no classes")
	}
	p := &Pool{classes: make([]classOcc, len(capacities))}
	for c, n := range capacities {
		if n < 1 {
			return nil, fmt.Errorf("cluster: pool capacity %d < 1", n)
		}
		p.classes[c] = classOcc{capacity: n, free: n}
	}
	return p, nil
}

// Capacity returns class c's total container count.
func (p *Pool) Capacity(c int) int { return p.classes[c].capacity }

// Now returns the pool's virtual clock.
func (p *Pool) Now() float64 { return p.now }

// Free returns class c's currently unallocated containers.
func (p *Pool) Free(c int) int { return p.classes[c].free }

// InUse returns class c's containers currently held by allocations.
func (p *Pool) InUse(c int) int { return p.classes[c].capacity - p.classes[c].free }

// HeldGB returns the total memory of class c's held containers — the
// occupancy the telemetry gauge reports alongside the container count.
func (p *Pool) HeldGB(c int) float64 { return p.classes[c].heldGB }

// Running returns the number of outstanding allocations.
func (p *Pool) Running() int { return len(p.running) }

// NextFinish returns the earliest outstanding finish time, if any.
func (p *Pool) NextFinish() (float64, bool) {
	if len(p.running) == 0 {
		return 0, false
	}
	return p.running[0].Finish, true
}

// Allocate holds a gang of class c's containers (each of gbEach GB, for
// occupancy accounting) until the virtual finish time and returns the
// allocation's token. The gang must fit the class's currently free
// containers and finish must not precede the pool's clock.
func (p *Pool) Allocate(c, containers int, gbEach, finish float64) (int64, error) {
	cl := &p.classes[c]
	if containers < 1 || containers > cl.free {
		return 0, fmt.Errorf("cluster: allocating %d containers with %d free", containers, cl.free)
	}
	if gbEach < 0 {
		return 0, fmt.Errorf("cluster: negative container size %g", gbEach)
	}
	if finish < p.now {
		return 0, fmt.Errorf("cluster: allocation finishing at %g before virtual now %g", finish, p.now)
	}
	p.seq++
	cl.free -= containers
	cl.heldGB += float64(containers) * gbEach
	// Every running token is older than this one, so the (finish, token)
	// slot is after every allocation finishing no later.
	i := sort.Search(len(p.running), func(i int) bool { return p.running[i].Finish > finish })
	p.running = slices.Insert(p.running, i, Release{Token: p.seq, Class: c, Finish: finish, Containers: containers, GBEach: gbEach})
	return p.seq, nil
}

// Advance moves the virtual clock to t (never backwards) and releases
// every allocation finishing at or before t, in (finish, allocation order)
// — a deterministic release order across classes. The returned slice is
// valid until the next Advance.
func (p *Pool) Advance(t float64) []Release {
	if t > p.now {
		p.now = t
	}
	due := 0
	for ; due < len(p.running) && p.running[due].Finish <= p.now; due++ {
		a := p.running[due]
		cl := &p.classes[a.Class]
		cl.free += a.Containers
		cl.heldGB -= float64(a.Containers) * a.GBEach
	}
	p.released = append(p.released[:0], p.running[:due]...)
	p.running = slices.Delete(p.running, 0, due)
	for c := range p.classes {
		p.classes[c].settleGB()
	}
	return p.released
}

// settleGB forgives float summation drift in the held memory once the
// class is idle (or the sum went negative).
func (cl *classOcc) settleGB() {
	if cl.free == cl.capacity || cl.heldGB < 0 {
		cl.heldGB = 0
	}
}

// Revoke removes a still-running allocation before its finish time and
// returns its containers to its class — the primitive behind spot
// preemption and mid-run aborts. The returned Release carries the
// original finish time so callers can tell how much work was lost.
//
// Revoking a token that already finished (or never existed) reports
// ok=false: callers that Advance to an instant and then revoke at that
// same instant therefore get "finish wins" semantics — an allocation
// finishing exactly when the preemption lands counts as completed.
func (p *Pool) Revoke(token int64) (Release, bool) {
	for i, a := range p.running {
		if a.Token != token {
			continue
		}
		p.running = slices.Delete(p.running, i, i+1)
		cl := &p.classes[a.Class]
		cl.free += a.Containers
		cl.heldGB -= float64(a.Containers) * a.GBEach
		cl.settleGB()
		return a, true
	}
	return Release{}, false
}

// RunningTokens returns, in allocation order, the tokens of the
// outstanding allocations whose class keep reports true.
func (p *Pool) RunningTokens(keep func(c int) bool) []int64 {
	var toks []int64
	for _, a := range p.running {
		if keep(a.Class) {
			toks = append(toks, a.Token)
		}
	}
	slices.Sort(toks)
	return toks
}

// SetCapacity resizes class c to n containers. Shrinking below the
// containers currently held is an error: running gangs are never evicted
// implicitly — revoke them first.
func (p *Pool) SetCapacity(c, n int) error {
	if n < 1 {
		return fmt.Errorf("cluster: pool capacity %d < 1", n)
	}
	cl := &p.classes[c]
	if inUse := cl.capacity - cl.free; n < inUse {
		return fmt.Errorf("cluster: shrinking capacity to %d below %d containers in use", n, inUse)
	}
	cl.free += n - cl.capacity
	cl.capacity = n
	return nil
}

// Conditions derives the cluster conditions class c can offer right now:
// the base conditions with the container axis capped at the class's free
// count. ok is false when fewer than base.MinContainers containers are
// free — an empty resource space, meaning any admission must wait.
func (p *Pool) Conditions(c int, base Conditions) (Conditions, bool) {
	out := base
	if free := p.classes[c].free; free < out.MaxContainers {
		out.MaxContainers = free
	}
	if out.MaxContainers < out.MinContainers {
		return Conditions{}, false
	}
	return out, true
}
