package feedback

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/stats"
)

// ModelInfo is one immutable version of the cost-model set. The
// recalibrator publishes a new ModelInfo atomically on every successful
// recalibration; readers always see a complete, consistent set.
type ModelInfo struct {
	// Version starts at 1 for the seed models and increments on every
	// recalibration.
	Version uint64
	// Models is the model set of this version. Recalibrated models are
	// named "fb<version>-<algo>" so downstream keys derived from model
	// names (the resource-plan cache indexes, the cost memo) can never
	// collide across versions.
	Models *cost.Models
	// TrainedOn is the number of profile samples this version was fitted
	// from (0 for the seed).
	TrainedOn int
}

// ModelNames lists the model names of this version, sorted.
func (mi *ModelInfo) ModelNames() []string {
	var names []string
	for _, a := range plan.Algos {
		if m, ok := mi.Models.For(a); ok {
			names = append(names, m.Name())
		}
	}
	sort.Strings(names)
	return names
}

// Recalibration describes one completed recalibration.
type Recalibration struct {
	Version   uint64        // the new model version
	Samples   int           // profile samples trained on
	Retrained []string      // algorithms refitted (sorted)
	Carried   []string      // algorithms carried over from the prior version (sorted)
	Duration  time.Duration // wall time of the train+swap (0 for an installed set)
}

// Recalibrator owns the live cost-model version and performs online
// recalibration: retrain from the store's accumulated samples, swap the
// versioned model set in atomically, then notify subscribers, whose OnSwap
// hooks repoint their optimizers and drop what was planned under the old
// set. Safe for concurrent use; recalibrations are serialized.
type Recalibrator struct {
	store *Store
	det   *Detector
	cur   atomic.Pointer[ModelInfo]

	mu     sync.Mutex                        // serializes recalibrations and onSwap edits
	onSwap []func(Recalibration, *ModelInfo) // guarded by mu

	recals        atomic.Int64
	lastrecalSecs atomicFloat64
}

// atomicFloat64 is a float64 with atomic load/store (via bit casting).
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat64) load() float64   { return math.Float64frombits(a.bits.Load()) }

// NewRecalibrator wires a store and detector to a seed model set,
// published as version 1.
func NewRecalibrator(store *Store, det *Detector, seed *cost.Models) *Recalibrator {
	r := &Recalibrator{store: store, det: det}
	r.cur.Store(&ModelInfo{Version: 1, Models: seed})
	return r
}

// Store returns the feedback store feeding this recalibrator.
func (r *Recalibrator) Store() *Store { return r.store }

// Detector returns the drift detector feeding this recalibrator.
func (r *Recalibrator) Detector() *Detector { return r.det }

// Current returns the live model version. The pointer is immutable; a
// later swap publishes a new ModelInfo rather than mutating this one.
func (r *Recalibrator) Current() *ModelInfo { return r.cur.Load() }

// Models returns the live model set (shorthand for Current().Models).
func (r *Recalibrator) Models() *cost.Models { return r.cur.Load().Models }

// Recalibrations returns how many recalibrations have completed.
func (r *Recalibrator) Recalibrations() int64 { return r.recals.Load() }

// LastDurationSeconds returns the wall time of the most recent
// recalibration (0 before the first).
func (r *Recalibrator) LastDurationSeconds() float64 { return r.lastrecalSecsLoad() }

func (r *Recalibrator) lastrecalSecsLoad() float64 { return r.lastrecalSecs.load() }

// OnSwap registers a hook invoked (synchronously, inside the
// recalibration critical section) after each model swap — used to reset
// the optimizer's cost memo and export telemetry.
func (r *Recalibrator) OnSwap(fn func(Recalibration, *ModelInfo)) {
	r.mu.Lock()
	r.onSwap = append(r.onSwap, fn)
	r.mu.Unlock()
}

// Feed records one observation: FeedBatch of one.
func (r *Recalibrator) Feed(o Observation) error {
	return r.FeedBatch([]Observation{o}, nil)
}

// FeedBatch records a batch into the store and then the detector. The
// detector, and through it the history recorder, sees the batch only once
// the store has it durably, so a refused batch leaves no trace. lines,
// when not nil, are the observations' journal lines (Store.AppendBatch).
func (r *Recalibrator) FeedBatch(obs []Observation, lines [][]byte) error {
	if err := r.store.AppendBatch(obs, lines); err != nil {
		return err
	}
	r.det.ObserveBatch(obs)
	return nil
}

// MaybeRecalibrate recalibrates only if the drift detector currently
// reports drift. It returns recalibrated=false (with no error) when there
// is no drift or not yet enough samples to retrain anything.
func (r *Recalibrator) MaybeRecalibrate() (Recalibration, bool, error) {
	if !r.det.Drifted() {
		return Recalibration{}, false, nil
	}
	rec, err := r.Recalibrate()
	if err == errNotEnoughSamples {
		return Recalibration{}, false, nil
	}
	if err != nil {
		return Recalibration{}, false, err
	}
	return rec, true, nil
}

// errNotEnoughSamples means no algorithm has accumulated enough samples to
// refit — drift without trainable evidence, which resolves itself as more
// feedback arrives.
var errNotEnoughSamples = fmt.Errorf("feedback: no algorithm has enough samples to retrain")

// Recalibrate unconditionally retrains from the store and swaps the model
// set. Algorithms with fewer than stats.NumFeatures+1 samples keep their
// current model (carried forward under its existing name); at least one
// algorithm must be trainable. The live version must be able to grow: at
// math.MaxUint64 Recalibrate fails and the live set stays, since a wrapped
// version would sort below every peer's.
func (r *Recalibrator) Recalibrate() (Recalibration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	cur := r.cur.Load()
	if cur.Version == math.MaxUint64 {
		return Recalibration{}, fmt.Errorf("feedback: model version %d cannot grow", cur.Version)
	}

	profiles := r.store.Profiles()
	trainable := make([]cost.Profile, 0, len(profiles))
	counts := make(map[plan.JoinAlgo]int)
	for _, p := range profiles {
		counts[p.Algo]++
	}
	for _, p := range profiles {
		if counts[p.Algo] >= stats.NumFeatures+1 {
			trainable = append(trainable, p)
		}
	}
	if len(trainable) == 0 {
		return Recalibration{}, errNotEnoughSamples
	}
	trained, err := cost.Train(trainable)
	if err != nil {
		return Recalibration{}, fmt.Errorf("feedback: recalibration: %w", err)
	}

	version := cur.Version + 1
	next := cost.NewModels()
	var retrained, carried []string
	for _, a := range plan.Algos {
		if m, ok := trained.For(a); ok {
			// Rename to the versioned form so cache/memo keys derived from
			// the model name can never alias an older version's entries.
			reg, isReg := m.(*cost.Regression)
			if !isReg {
				return Recalibration{}, fmt.Errorf("feedback: trained model for %s is not a regression", a)
			}
			next.Set(a, cost.NewRegression(fmt.Sprintf("fb%d-%s", version, a), reg.Linear))
			retrained = append(retrained, a.String())
		} else if m, ok := cur.Models.For(a); ok {
			next.Set(a, m)
			carried = append(carried, a.String())
		}
	}

	rec := Recalibration{
		Version:   version,
		Samples:   len(trainable),
		Retrained: retrained,
		Carried:   carried,
		Duration:  time.Since(start),
	}
	// Counted before publishing, so a reader of the new version sees it.
	r.recals.Add(1)
	r.lastrecalSecs.store(rec.Duration.Seconds())
	r.publishLocked(rec, &ModelInfo{Version: version, Models: next, TrainedOn: len(trainable)})
	return rec, nil
}

// Install adopts an externally trained model set — a fleet peer's
// recalibration, pulled by the prober — as the live version. The version
// guard makes Install idempotent: a set at or below the live version is
// ignored (returns false), so a node that pulls the same version twice
// swaps only once.
func (r *Recalibrator) Install(version uint64, models *cost.Models, trainedOn int) bool {
	if models == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if version <= r.cur.Load().Version {
		return false
	}
	r.publishLocked(Recalibration{Version: version, Samples: trainedOn},
		&ModelInfo{Version: version, Models: models, TrainedOn: trainedOn})
	return true
}

// publishLocked makes info the live version, the one swap step Recalibrate
// and Install share: it stores info, runs the OnSwap hooks so every
// optimizer sharing this recalibrator repoints at the new set, and resets
// the drift detector, whose windows were measured against the displaced
// models. The caller holds r.mu.
func (r *Recalibrator) publishLocked(rec Recalibration, info *ModelInfo) {
	r.cur.Store(info)
	for _, fn := range r.onSwap {
		fn(rec, info)
	}
	r.det.Reset()
}

// Loop runs drift-gated recalibration every interval until ctx is
// canceled. A completed recalibration reaches subscribers through their
// OnSwap hooks; a failed one is retried on the next tick. Returns
// ctx.Err() on shutdown.
func (r *Recalibrator) Loop(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			_, _, _ = r.MaybeRecalibrate()
		}
	}
}
