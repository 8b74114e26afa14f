package cloud

import (
	"container/heap"
	"fmt"
	"math/rand"

	"raqo/internal/randsrc"
)

// FaultConfig parameterizes the seeded fault-injection processes. All
// probabilities and times are evaluated on the virtual clock from seeds
// derived per admission, so fault schedules are bit-identical across
// runs.
type FaultConfig struct {
	Seed int64
	// SpotMeanLifeSeconds is the mean of the exponential lifetime drawn
	// for every allocation placed on spot capacity; an allocation whose
	// drawn lifetime undercuts its execution time is preempted mid-run.
	// <= 0 disables stochastic spot interruption.
	SpotMeanLifeSeconds float64
	// StragglerProb is the probability an admitted gang straggles,
	// multiplying its execution time by StragglerFactor (default 2.5).
	StragglerProb   float64
	StragglerFactor float64
	// OOMProb is the probability an admitted gang aborts mid-run with an
	// out-of-memory kill at a uniform point of its execution.
	OOMProb float64
	// StormAtSeconds, when > 0, fires a one-shot preemption storm at that
	// virtual time, revoking ceil(StormFraction * running-spot) spot
	// allocations in allocation order. StormFraction defaults to 0.5.
	StormAtSeconds float64
	StormFraction  float64
}

// Validate checks the fault configuration.
func (c FaultConfig) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"straggler", c.StragglerProb}, {"oom", c.OOMProb}, {"storm fraction", c.StormFraction}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("cloud: %s probability %g outside [0, 1]", pr.name, pr.v)
		}
	}
	if c.StragglerFactor < 0 {
		return fmt.Errorf("cloud: straggler factor %g < 0", c.StragglerFactor)
	}
	return nil
}

// FaultKind discriminates the scheduled fault events.
type FaultKind int

// Fault kinds.
const (
	// FaultPreempt is a spot interruption: the provider takes the
	// capacity back mid-run.
	FaultPreempt FaultKind = iota
	// FaultOOM is a runtime out-of-memory kill (data skew, misestimated
	// intermediate): the gang dies mid-run even on reliable capacity.
	FaultOOM
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultPreempt:
		return "preempt"
	case FaultOOM:
		return "oom"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scheduled interruption of a running allocation.
type FaultEvent struct {
	At    float64
	Token int64 // pool allocation token
	Kind  FaultKind
}

type faultHeap []FaultEvent

func (h faultHeap) Len() int { return len(h) }
func (h faultHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].Token < h[j].Token
}
func (h faultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *faultHeap) Push(x interface{}) { *h = append(*h, x.(FaultEvent)) }
func (h *faultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Draw is the fate rolled for one admission.
type Draw struct {
	// ExecSeconds is the effective execution time (straggler-adjusted).
	ExecSeconds float64
	Straggler   bool
	// PreemptAt and OOMAt are absolute virtual times; < 0 means the
	// fault does not fire for this admission.
	PreemptAt float64
	OOMAt     float64
}

// Injector derives per-admission fault draws and keeps the schedule of
// pending fault events. It is the single source of randomness in the
// cloud layer. It is not safe for concurrent use.
type Injector struct {
	cfg       FaultConfig
	events    faultHeap
	stormDone bool
	rng       *rand.Rand // over a randsrc.Source, re-seeded by every Draw
}

// NewInjector builds an injector from a validated configuration.
func NewInjector(cfg FaultConfig) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StragglerFactor == 0 {
		cfg.StragglerFactor = 2.5
	}
	if cfg.StormAtSeconds > 0 && cfg.StormFraction == 0 {
		cfg.StormFraction = 0.5
	}
	return &Injector{cfg: cfg, rng: rand.New(&randsrc.Source{})}, nil
}

// splitmix is the SplitMix64 finalizer — the per-admission seed
// derivation, mixing the configured seed with the admission sequence so
// each admission rolls an independent, reproducible stream.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Draw rolls the fate of admission seq: a gang starting now on the given
// tier with a nominal execution time. The same (seed, seq, tier, start,
// exec) always rolls the same fate.
func (in *Injector) Draw(seq int64, tier Tier, start, execSeconds float64) Draw {
	d := Draw{ExecSeconds: execSeconds, PreemptAt: -1, OOMAt: -1}
	if in.cfg.StragglerProb == 0 && in.cfg.OOMProb == 0 && in.cfg.SpotMeanLifeSeconds <= 0 {
		return d // no fault process: nothing to roll (a fault-free pool)
	}
	// The stream of rand.NewSource(seed), without building that source.
	rng := in.rng
	rng.Seed(int64(splitmix(uint64(in.cfg.Seed) ^ splitmix(uint64(seq)))))
	// Fixed draw order: straggler, OOM, spot lifetime — consuming the
	// stream identically whether or not each process is enabled keeps a
	// single fault's schedule stable when another is toggled.
	pStraggle := rng.Float64()
	pOOM := rng.Float64()
	uOOM := rng.Float64()
	life := rng.ExpFloat64()
	if in.cfg.StragglerProb > 0 && pStraggle < in.cfg.StragglerProb {
		d.Straggler = true
		d.ExecSeconds = execSeconds * in.cfg.StragglerFactor
	}
	if in.cfg.OOMProb > 0 && pOOM < in.cfg.OOMProb && d.ExecSeconds > 0 {
		d.OOMAt = start + uOOM*d.ExecSeconds
	}
	if tier == Spot && in.cfg.SpotMeanLifeSeconds > 0 {
		if lifetime := life * in.cfg.SpotMeanLifeSeconds; lifetime < d.ExecSeconds {
			d.PreemptAt = start + lifetime
		}
	}
	return d
}

// Schedule queues a fault event.
func (in *Injector) Schedule(ev FaultEvent) { heap.Push(&in.events, ev) }

// Next returns the earliest pending fault time — scheduled events or the
// storm, whichever comes first.
func (in *Injector) Next() (float64, bool) {
	best, ok := 0.0, false
	if in.events.Len() > 0 {
		best, ok = in.events[0].At, true
	}
	if t, has := in.stormAt(); has && (!ok || t < best) {
		best, ok = t, true
	}
	return best, ok
}

// stormAt returns the pending storm time, if one is configured and has
// not fired yet.
func (in *Injector) stormAt() (float64, bool) {
	if in.cfg.StormAtSeconds > 0 && !in.stormDone {
		return in.cfg.StormAtSeconds, true
	}
	return 0, false
}

// PopDue removes and returns every scheduled event with At <= t, in
// (time, token) order. Events whose allocation already finished are the
// caller's to recognize and drop (finish wins at the same instant).
func (in *Injector) PopDue(t float64) []FaultEvent {
	var out []FaultEvent
	for in.events.Len() > 0 && in.events[0].At <= t {
		out = append(out, heap.Pop(&in.events).(FaultEvent))
	}
	return out
}

// StormDue reports whether the one-shot storm should fire at or before
// t; MarkStorm consumes it.
func (in *Injector) StormDue(t float64) bool {
	at, ok := in.stormAt()
	return ok && at <= t
}

// MarkStorm records the storm as fired.
func (in *Injector) MarkStorm() { in.stormDone = true }

// StormFraction returns the configured (defaulted) storm fraction.
func (in *Injector) StormFraction() float64 { return in.cfg.StormFraction }
