package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Pool tracks the container occupancy of a shared cluster over virtual
// time: a fixed capacity of containers, gang allocations held until their
// virtual finish times, and a monotone clock. It is the one occupancy
// model behind both the Figure-1 trace simulator (Simulator.Run) and, one
// per instance class of a cloud.Pool, the admission engine of both
// arbiters, so "how many containers are free at virtual time t" has
// exactly one implementation.
//
// Pool is not safe for concurrent use; its owners are single-threaded
// discrete-event loops.
type Pool struct {
	capacity int
	free     int
	heldGB   float64
	now      float64
	seq      int64
	running  []allocation // in (finish, token) order: the release order
	released []Release    // Advance's answer, reused by the next call
}

// allocation is one gang of containers held until a virtual finish time.
type allocation struct {
	finish     float64
	containers int
	gbEach     float64
	token      int64 // allocation order; ties on finish release in this order
}

// Release reports one allocation returned to the pool by Advance.
type Release struct {
	Token      int64
	Finish     float64
	Containers int
	GBEach     float64
}

// NewPool builds an idle pool of capacity containers at virtual time 0.
func NewPool(capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("cluster: pool capacity %d < 1", capacity)
	}
	return &Pool{capacity: capacity, free: capacity}, nil
}

// Capacity returns the total container count.
func (p *Pool) Capacity() int { return p.capacity }

// Now returns the pool's virtual clock.
func (p *Pool) Now() float64 { return p.now }

// Free returns the containers currently unallocated.
func (p *Pool) Free() int { return p.free }

// InUse returns the containers currently held by allocations.
func (p *Pool) InUse() int { return p.capacity - p.free }

// HeldGB returns the total memory of the held containers — the occupancy
// the telemetry gauge reports alongside the container count.
func (p *Pool) HeldGB() float64 { return p.heldGB }

// Running returns the number of outstanding allocations.
func (p *Pool) Running() int { return len(p.running) }

// NextFinish returns the earliest outstanding finish time, if any.
func (p *Pool) NextFinish() (float64, bool) {
	if len(p.running) == 0 {
		return 0, false
	}
	return p.running[0].finish, true
}

// Allocate holds a gang of containers (each of gbEach GB, for occupancy
// accounting) until the virtual finish time and returns the allocation's
// token. The gang must fit the currently free containers and finish must
// not precede the pool's clock.
func (p *Pool) Allocate(containers int, gbEach, finish float64) (int64, error) {
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
	// Every running token is older than tok, so the (finish, token) slot
	// is after every allocation finishing no later.
	i := sort.Search(len(p.running), func(i int) bool { return p.running[i].finish > finish })
	p.running = slices.Insert(p.running, i, allocation{finish: finish, containers: containers, gbEach: gbEach, token: tok})
	return tok, nil
}

// Advance moves the virtual clock to t (never backwards) and releases
// every allocation finishing at or before t, in (finish, allocation order)
// — a deterministic release order. The returned slice is valid until the
// next Advance.
func (p *Pool) Advance(t float64) []Release {
	if t > p.now {
		p.now = t
	}
	out := p.released[:0]
	due := 0
	for ; due < len(p.running) && p.running[due].finish <= p.now; due++ {
		a := p.running[due]
		p.free += a.containers
		p.heldGB -= float64(a.containers) * a.gbEach
		out = append(out, Release{Token: a.token, Finish: a.finish, Containers: a.containers, GBEach: a.gbEach})
	}
	p.running = slices.Delete(p.running, 0, due)
	if len(p.running) == 0 || p.heldGB < 0 {
		p.heldGB = 0 // forgive float summation drift once idle
	}
	p.released = out
	return out
}

// Revoke removes a still-running allocation before its finish time and
// returns its containers to the pool — the primitive behind spot
// preemption and mid-run aborts. The returned Release carries the
// original finish time so callers can tell how much work was lost.
//
// Revoking a token that already finished (or never existed) reports
// ok=false: callers that Advance to an instant and then revoke at that
// same instant therefore get "finish wins" semantics — an allocation
// finishing exactly when the preemption lands counts as completed.
func (p *Pool) Revoke(token int64) (Release, bool) {
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
		return Release{Token: a.token, Finish: a.finish, Containers: a.containers, GBEach: a.gbEach}, true
	}
	return Release{}, false
}

// SetCapacity resizes the pool to n containers. Shrinking below the
// containers currently held is an error: running gangs are never evicted
// implicitly — revoke them first.
func (p *Pool) SetCapacity(n int) error {
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

// Conditions derives the cluster conditions the pool can offer right now:
// the base conditions with the container axis capped at the free count.
// ok is false when fewer than base.MinContainers containers are free — an
// empty resource space, meaning any admission must wait.
func (p *Pool) Conditions(base Conditions) (Conditions, bool) {
	out := base
	if p.free < out.MaxContainers {
		out.MaxContainers = p.free
	}
	if out.MaxContainers < out.MinContainers {
		return Conditions{}, false
	}
	return out, true
}
