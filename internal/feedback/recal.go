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
	"raqo/internal/resource"
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
	Version    uint64        // the new model version
	Samples    int           // profile samples trained on
	Retrained  []string      // algorithms refitted (sorted)
	Carried    []string      // algorithms carried over from the prior version (sorted)
	CacheReset bool          // whether the resource-plan cache generation advanced
	Duration   time.Duration // wall time of the train+swap
	// Installed marks a swap that adopted an externally trained set (a
	// fleet peer's publication) rather than retraining locally.
	Installed bool
}

// Recalibrator owns the live cost-model version and performs online
// recalibration: retrain from the store's accumulated samples, swap the
// versioned model set in atomically, invalidate the resource-plan cache,
// then notify subscribers. Safe for concurrent use; recalibrations are
// serialized.
type Recalibrator struct {
	// Cache, when set, has its generation bumped (CAS-guarded) after each
	// model swap so stale resource plans are re-planned under the new
	// model.
	Cache *resource.Cache

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
// algorithm must be trainable. The resource-plan cache generation is
// advanced with a CAS against the generation observed before training, so
// a cache another component reset mid-train is not clobbered again.
func (r *Recalibrator) Recalibrate() (Recalibration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()

	var gen0 uint64
	if r.Cache != nil {
		gen0 = r.Cache.Stats().Generation
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

	cur := r.cur.Load()
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

	info := &ModelInfo{Version: version, Models: next, TrainedOn: len(trainable)}
	r.cur.Store(info)

	rec := Recalibration{
		Version:   version,
		Samples:   len(trainable),
		Retrained: retrained,
		Carried:   carried,
	}
	if r.Cache != nil {
		rec.CacheReset = r.Cache.ResetIfGeneration(gen0)
	}
	rec.Duration = time.Since(start)
	for _, fn := range r.onSwap {
		fn(rec, info)
	}
	r.det.Reset()
	r.recals.Add(1)
	r.lastrecalSecs.store(rec.Duration.Seconds())
	return rec, nil
}

// Install adopts an externally trained model set — a fleet peer's
// published recalibration — as the live version, under the same
// CAS-generation discipline as Recalibrate: the resource-plan cache
// observed before the swap is invalidated exactly once, OnSwap hooks fire
// so every optimizer sharing this recalibrator repoints at the new set,
// and the drift detector resets (its windows were measured against the
// displaced models). The version guard makes Install idempotent: a set at
// or below the live version is ignored (returns false), so a node that
// receives the same publication twice — once pushed, once pulled by its
// prober — invalidates its cache only once.
func (r *Recalibrator) Install(version uint64, models *cost.Models, trainedOn int) bool {
	if models == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cur.Load()
	if version <= cur.Version {
		return false
	}
	start := time.Now()
	var gen0 uint64
	if r.Cache != nil {
		gen0 = r.Cache.Stats().Generation
	}
	info := &ModelInfo{Version: version, Models: models, TrainedOn: trainedOn}
	r.cur.Store(info)
	rec := Recalibration{Version: version, Samples: trainedOn, Installed: true}
	if r.Cache != nil {
		rec.CacheReset = r.Cache.ResetIfGeneration(gen0)
	}
	rec.Duration = time.Since(start)
	for _, fn := range r.onSwap {
		fn(rec, info)
	}
	r.det.Reset()
	return true
}

// Loop runs drift-gated recalibration every interval until ctx is
// canceled. Each completed recalibration (and each error) is reported to
// onRecal when non-nil. Returns ctx.Err() on shutdown.
func (r *Recalibrator) Loop(ctx context.Context, interval time.Duration, onRecal func(Recalibration, error)) error {
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
			rec, did, err := r.MaybeRecalibrate()
			if (did || err != nil) && onRecal != nil {
				onRecal(rec, err)
			}
		}
	}
}
