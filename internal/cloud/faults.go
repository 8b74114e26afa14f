package cloud

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

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
	// multiplying its execution time by stragglerFactor.
	StragglerProb float64
	// OOMProb is the probability an admitted gang aborts mid-run with an
	// out-of-memory kill at a uniform point of its execution.
	OOMProb float64
	// StormAtSeconds, when > 0, fires a one-shot preemption storm at that
	// virtual time, revoking ceil(stormFraction * running-spot) spot
	// allocations in allocation order.
	StormAtSeconds float64
}

const (
	// stragglerFactor is how many times its nominal execution time a
	// straggling gang runs.
	stragglerFactor = 2.5
	// stormFraction is the share of running spot allocations a storm
	// revokes.
	stormFraction = 0.5
)

// Validate checks the fault configuration.
func (c FaultConfig) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"straggler", c.StragglerProb}, {"oom", c.OOMProb}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("cloud: %s probability %g outside [0, 1]", pr.name, pr.v)
		}
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
	events    []FaultEvent // in (At, Token) order, ties in scheduling order
	due       []FaultEvent // PopDue's answer, reused by the next PopDue
	stormDone bool
	rng       *rand.Rand // over a randsrc.Source, re-seeded by every Draw
}

// NewInjector builds an injector from a validated configuration.
func NewInjector(cfg FaultConfig) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
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
		d.ExecSeconds = execSeconds * stragglerFactor
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

// Schedule queues a fault event after every pending event that is not
// later in (At, Token) order.
func (in *Injector) Schedule(ev FaultEvent) {
	i := sort.Search(len(in.events), func(i int) bool {
		e := in.events[i]
		return e.At > ev.At || e.At == ev.At && e.Token > ev.Token
	})
	in.events = slices.Insert(in.events, i, ev)
}

// Next returns the earliest pending fault time — scheduled events or the
// storm, whichever comes first.
func (in *Injector) Next() (float64, bool) {
	best, ok := 0.0, false
	if len(in.events) > 0 {
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
// (time, token) order. The returned slice is valid until the next PopDue,
// which reuses it. Events whose allocation already finished are the
// caller's to recognize and drop (finish wins at the same instant).
func (in *Injector) PopDue(t float64) []FaultEvent {
	n := 0
	for n < len(in.events) && in.events[n].At <= t {
		n++
	}
	in.due = append(in.due[:0], in.events[:n]...)
	in.events = slices.Delete(in.events, 0, n)
	return in.due
}

// StormDue reports whether the one-shot storm should fire at or before
// t; MarkStorm consumes it.
func (in *Injector) StormDue(t float64) bool {
	at, ok := in.stormAt()
	return ok && at <= t
}

// MarkStorm records the storm as fired.
func (in *Injector) MarkStorm() { in.stormDone = true }
