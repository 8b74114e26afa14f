package feedback

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/stats"
	"raqo/internal/workload"
)

// skewModels returns src with every regression coefficient scaled by
// factor — a deliberately miscalibrated model whose predictions are
// factor× off, so accurate feedback must trip the drift detector.
func skewModels(t *testing.T, src *cost.Models, factor float64) *cost.Models {
	t.Helper()
	out := cost.NewModels()
	for _, a := range plan.Algos {
		m, ok := src.For(a)
		if !ok {
			t.Fatalf("source models missing %s", a)
		}
		reg, ok := m.(*cost.Regression)
		if !ok {
			t.Fatalf("model for %s is not a regression", a)
		}
		coef := append([]float64(nil), reg.Linear.Coef...)
		for i := range coef {
			coef[i] *= factor
		}
		out.Set(a, cost.NewRegression("skew-"+a.String(),
			&stats.LinearModel{Coef: coef, Intercept: reg.Linear.Intercept * factor}))
	}
	return out
}

func newRecalibrator(t *testing.T, journal *Journal) (*Recalibrator, *cost.Models) {
	t.Helper()
	truth, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		t.Fatal(err)
	}
	skewed := skewModels(t, truth, 4)
	rec := NewRecalibrator(NewStore(0, journal), NewDetector(DriftConfig{}), skewed)
	return rec, truth
}

func feedGrid(t *testing.T, rec *Recalibrator) {
	t.Helper()
	grid := workload.DefaultProfileGrid(execsim.Hive())
	for _, o := range SyntheticObservations("hive", rec.Models(), grid) {
		if err := rec.Feed(o); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecalibrateSwapsVersionedModelsAndResetsCacheOnce(t *testing.T) {
	rec, truth := newRecalibrator(t, nil)
	// A subscriber that caches resource plans drops them on every swap.
	cache := &resource.Cache{Inner: &resource.HillClimb{}}
	rec.OnSwap(func(Recalibration, *ModelInfo) { cache.Reset() })

	// Populate the cache so the reset is observable as evictions.
	m, _ := rec.Models().For(plan.SMJ)
	if _, err := cache.Plan(m, 2, cluster.Default()); err != nil {
		t.Fatal(err)
	}
	gen0 := cache.Stats().Generation

	if _, did, err := rec.MaybeRecalibrate(); err != nil || did {
		t.Fatalf("recalibrated with no feedback: did=%v err=%v", did, err)
	}

	feedGrid(t, rec)
	if !rec.Detector().Drifted() {
		t.Fatal("accurate feedback against a 4x-skewed model did not trip the drift detector")
	}

	var swaps []uint64
	rec.OnSwap(func(r Recalibration, info *ModelInfo) { swaps = append(swaps, info.Version) })

	r, did, err := rec.MaybeRecalibrate()
	if err != nil || !did {
		t.Fatalf("MaybeRecalibrate: did=%v err=%v", did, err)
	}
	if r.Version != 2 || rec.Current().Version != 2 {
		t.Fatalf("version = %d/%d, want 2", r.Version, rec.Current().Version)
	}
	if g := cache.Stats().Generation; g != gen0+1 {
		t.Fatalf("cache generation = %d, want %d (exactly one advance)", g, gen0+1)
	}
	if cache.Size() != 0 {
		t.Fatal("cache entries survived recalibration")
	}
	if len(swaps) != 1 || swaps[0] != 2 {
		t.Fatalf("OnSwap calls = %v, want [2]", swaps)
	}
	if len(r.Retrained) != 2 || len(r.Carried) != 0 {
		t.Fatalf("retrained=%v carried=%v, want both algos retrained", r.Retrained, r.Carried)
	}

	// Models carry versioned names so cache/memo keys never alias.
	for _, a := range plan.Algos {
		m, ok := rec.Models().For(a)
		if !ok {
			t.Fatalf("recalibrated set missing %s", a)
		}
		want := fmt.Sprintf("fb2-%s", a)
		if m.Name() != want {
			t.Errorf("model name = %s, want %s", m.Name(), want)
		}
	}

	// The recalibrated model matches ground truth (same training grid).
	for _, a := range plan.Algos {
		got, _ := rec.Models().For(a)
		want, _ := truth.For(a)
		gr, wr := got.(*cost.Regression), want.(*cost.Regression)
		for i := range wr.Linear.Coef {
			if math.Abs(gr.Linear.Coef[i]-wr.Linear.Coef[i]) > 1e-6*(1+math.Abs(wr.Linear.Coef[i])) {
				t.Fatalf("%s coef[%d] = %g, want %g", a, i, gr.Linear.Coef[i], wr.Linear.Coef[i])
			}
		}
	}

	// Detector was reset: the new model is judged only on its own output.
	if rec.Detector().Drifted() || len(rec.Detector().Stats()) != 0 {
		t.Error("detector not reset after recalibration")
	}
	if rec.Recalibrations() != 1 {
		t.Errorf("Recalibrations = %d, want 1", rec.Recalibrations())
	}
	if rec.LastDurationSeconds() <= 0 {
		t.Error("LastDurationSeconds not recorded")
	}
}

func TestRecalibrateCarriesUndersampledAlgos(t *testing.T) {
	rec, _ := newRecalibrator(t, nil)
	// Only SMJ samples, enough to train it; BHJ must be carried forward.
	for i := 0; i < stats.NumFeatures+2; i++ {
		o := obs(i)
		if err := rec.Feed(o); err != nil {
			t.Fatal(err)
		}
	}
	r, err := rec.Recalibrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Retrained) != 1 || r.Retrained[0] != "SMJ" {
		t.Fatalf("retrained = %v", r.Retrained)
	}
	if len(r.Carried) != 1 || r.Carried[0] != "BHJ" {
		t.Fatalf("carried = %v", r.Carried)
	}
	smj, _ := rec.Models().For(plan.SMJ)
	if smj.Name() != "fb2-SMJ" {
		t.Errorf("SMJ name = %s", smj.Name())
	}
	bhj, _ := rec.Models().For(plan.BHJ)
	if !strings.HasPrefix(bhj.Name(), "skew-") {
		t.Errorf("BHJ should keep the prior model, got %s", bhj.Name())
	}
}

func TestRecalibrateWithoutTrainableSamples(t *testing.T) {
	rec, _ := newRecalibrator(t, nil)
	// Drift with too few samples to retrain: MaybeRecalibrate must decline
	// without error.
	det := NewDetector(DriftConfig{MinSamples: 2})
	rec.det = det
	for i := 0; i < 3; i++ {
		if err := rec.Feed(Observation{Engine: "hive", PredictedSeconds: 300, ObservedSeconds: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if !det.Drifted() {
		t.Fatal("setup: no drift")
	}
	_, did, err := rec.MaybeRecalibrate()
	if err != nil || did {
		t.Fatalf("did=%v err=%v, want a clean decline", did, err)
	}
	if rec.Current().Version != 1 {
		t.Error("version advanced without retraining")
	}
}

// TestEndToEndAdaptivity is the acceptance scenario: a service seeded with
// a skewed cost model receives accurate execution feedback, detects drift,
// recalibrates exactly once, and afterwards predicts a held-out TPC-H
// query set materially better than before.
func TestEndToEndAdaptivity(t *testing.T) {
	engine := execsim.Hive()
	truth, err := workload.TrainedModels(engine)
	if err != nil {
		t.Fatal(err)
	}
	skewed := skewModels(t, truth, 4)

	opt, err := core.New(cluster.Default(), core.Options{Models: skewed, Engine: &engine})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecalibrator(NewStore(0, nil), NewDetector(DriftConfig{}), skewed)
	swaps := 0
	rec.OnSwap(func(_ Recalibration, info *ModelInfo) {
		swaps++
		if err := opt.SetModels(info.Models); err != nil {
			t.Errorf("SetModels: %v", err)
		}
	})

	sch := catalog.TPCH(100)
	pricing := cost.DefaultPricing()
	heldOut := []string{workload.Q2, workload.Q3, workload.Q12}

	// queryError optimizes and "executes" each held-out query, returning
	// the mean relative error of the planner's time prediction.
	queryError := func() float64 {
		sum := 0.0
		for _, name := range heldOut {
			q, err := workload.TPCHQuery(sch, name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := opt.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Execute(d.Plan, pricing)
			if err != nil {
				t.Fatal(err)
			}
			sum += relError(d.Time, res.Seconds)
		}
		return sum / float64(len(heldOut))
	}

	preErr := queryError()

	// Stream accurate feedback (simulator ground truth predicted by the
	// live, skewed model).
	feedGrid(t, rec)

	// (a) drift detector fires.
	if !rec.Detector().Drifted() {
		t.Fatal("drift detector did not fire on accurate feedback")
	}

	// (b) model version increments and the optimizer is repointed exactly
	// once per recalibration.
	if _, did, err := rec.MaybeRecalibrate(); err != nil || !did {
		t.Fatalf("recalibration: did=%v err=%v", did, err)
	}
	if rec.Current().Version != 2 {
		t.Fatalf("model version = %d, want 2", rec.Current().Version)
	}
	if swaps != 1 || opt.Models() != rec.Models() {
		t.Fatalf("%d swaps, optimizer on the live set %v; want 1 and true", swaps, opt.Models() == rec.Models())
	}
	// No drift → no second recalibration, no second swap.
	if _, did, _ := rec.MaybeRecalibrate(); did {
		t.Fatal("recalibrated again without new drift")
	}
	if swaps != 1 {
		t.Fatal("the optimizer was repointed without a recalibration")
	}

	// (c) held-out prediction error drops.
	postErr := queryError()
	if postErr >= preErr {
		t.Fatalf("held-out error did not improve: pre=%g post=%g", preErr, postErr)
	}
	if postErr > 0.5 {
		t.Errorf("post-recalibration error still large: %g", postErr)
	}
	if preErr < 1 {
		t.Errorf("setup: skewed model error suspiciously low: %g", preErr)
	}
}

// TestRecalibrationDeterministic replays the same journal twice and
// demands bit-identical recalibrated coefficients and versions.
func TestRecalibrationDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fb.jsonl")
	j, err := OpenJournalConfig(path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec1, _ := newRecalibrator(t, j)
	feedGrid(t, rec1)
	if _, err := rec1.Recalibrate(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	replay := func() *Recalibrator {
		rec, _ := newRecalibrator(t, nil)
		observations, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range observations {
			if err := rec.Feed(o); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rec.Recalibrate(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	rec2, rec3 := replay(), replay()

	sameModels(t, rec1.Current(), rec2.Current())
	sameModels(t, rec2.Current(), rec3.Current())
}

// sameModels demands two model versions agree bit for bit.
func sameModels(t *testing.T, a, b *ModelInfo) {
	t.Helper()
	if a.Version != b.Version || a.TrainedOn != b.TrainedOn {
		t.Fatalf("version/trainedOn diverged: %+v vs %+v", a, b)
	}
	for _, algo := range plan.Algos {
		ma, _ := a.Models.For(algo)
		mb, _ := b.Models.For(algo)
		ra, rb := ma.(*cost.Regression), mb.(*cost.Regression)
		if ra.Linear.Intercept != rb.Linear.Intercept {
			t.Fatalf("%s intercept diverged", algo)
		}
		for i := range ra.Linear.Coef {
			if ra.Linear.Coef[i] != rb.Linear.Coef[i] {
				t.Fatalf("%s coef[%d] diverged: %v vs %v", algo, i, ra.Linear.Coef[i], rb.Linear.Coef[i])
			}
		}
	}
}

// benchShaped draws n observations the way the repository benchmark's
// feedback_rw preload does (bench/gen.go): two-join plans, full-precision
// floats, 80 observations per virtual second.
func benchShaped(n int) []Observation {
	rng := rand.New(rand.NewSource(7))
	algos := []string{"SMJ", "BHJ"}
	out := make([]Observation, n)
	for i := range out {
		o := &out[i]
		*o = Observation{Signature: fmt.Sprintf("bench-%d", rng.Intn(64)), Engine: "hive", ObservedAt: 1_700_000_000 + int64(i/80)}
		for j := 0; j < 2; j++ {
			obs := 5 + 200*rng.Float64()
			pred := obs * (0.7 + 0.6*rng.Float64())
			o.Operators = append(o.Operators, OperatorSample{
				Algo: algos[rng.Intn(2)], SSGB: 0.1 + 8*rng.Float64(), CSGB: float64(1 + rng.Intn(10)),
				NC: float64(10 + rng.Intn(91)), PredictedSeconds: pred, ObservedSeconds: obs,
			})
			o.PredictedSeconds += pred
			o.ObservedSeconds += obs
		}
	}
	return out
}

// TestJournalBytesUnchanged: feeding the benchmark's preload shape in
// batches writes the file one json.Marshal per observation would, and
// replaying it through the codec serves the same model bit for bit as the
// recalibrator that took the batches.
func TestJournalBytesUnchanged(t *testing.T) {
	obs := benchShaped(800)
	path := filepath.Join(t.TempDir(), "feedback.jsonl")
	j, err := OpenJournalConfig(path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec1, _ := newRecalibrator(t, j)
	var want []byte
	for i := 0; i < len(obs); i += 8 {
		if err := rec1.FeedBatch(obs[i:i+8], nil); err != nil {
			t.Fatal(err)
		}
		for _, o := range obs[i : i+8] {
			line, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, line...), '\n')
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("journal differs from one json.Marshal per line (err=%v, %d vs %d bytes)", err, len(got), len(want))
	}
	if w := j.Writes(); w != int64(len(obs)/8) {
		t.Fatalf("journal took %d writes for %d batches", w, len(obs)/8)
	}

	replayed, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, obs) {
		t.Fatal("replay differs from what was fed")
	}
	rec2, _ := newRecalibrator(t, nil)
	for _, o := range replayed {
		if err := rec2.Feed(o); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rec1.Detector().Stats(), rec2.Detector().Stats()) {
		t.Fatal("detector windows differ between batch feed and per-observation replay")
	}
	for _, rec := range []*Recalibrator{rec1, rec2} {
		if _, err := rec.Recalibrate(); err != nil {
			t.Fatal(err)
		}
	}
	sameModels(t, rec1.Current(), rec2.Current())
}

func TestLoopRecalibratesAndStopsOnCancel(t *testing.T) {
	rec, _ := newRecalibrator(t, nil)
	feedGrid(t, rec)

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan Recalibration, 1)
	rec.OnSwap(func(r Recalibration, _ *ModelInfo) {
		select {
		case got <- r:
		default:
		}
	})
	done := make(chan error, 1)
	go func() { done <- rec.Loop(ctx, time.Millisecond) }()

	select {
	case r := <-got:
		if r.Version != 2 {
			t.Errorf("loop recalibrated to version %d, want 2", r.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loop never recalibrated")
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Loop returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not stop on cancel")
	}
}

// TestConcurrentFeedAndRecalibrate hammers the recalibrator from feeding,
// recalibrating and reading goroutines under -race.
func TestConcurrentFeedAndRecalibrate(t *testing.T) {
	rec, _ := newRecalibrator(t, nil)
	cache := &resource.Cache{Inner: &resource.HillClimb{}}
	rec.OnSwap(func(Recalibration, *ModelInfo) { cache.Reset() })
	grid := workload.DefaultProfileGrid(execsim.Hive())
	observations := SyntheticObservations("hive", rec.Models(), grid)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(observations); i += 4 {
				if err := rec.Feed(observations[i]); err != nil {
					t.Errorf("Feed: %v", err)
					return
				}
				if i%64 == 0 {
					_, _, _ = rec.MaybeRecalibrate()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			info := rec.Current()
			if info.Models == nil {
				t.Error("nil model set observed")
				return
			}
			for _, a := range plan.Algos {
				if m, ok := info.Models.For(a); ok {
					_ = m.Cost(2, 4, 20)
				}
			}
			_ = rec.Detector().Stats()
		}
	}()
	wg.Wait()
	if _, _, err := rec.MaybeRecalibrate(); err != nil {
		t.Fatal(err)
	}
	if rec.Current().Version < 1 {
		t.Error("version went backwards")
	}
}

// TestInstallAdoptsRemoteModels covers the fleet-distribution path:
// Install swaps a peer's model set in exactly once — OnSwap hooks fire
// once, and re-installing the same or an older version is a no-op (no
// second swap, version unchanged).
func TestInstallAdoptsRemoteModels(t *testing.T) {
	rec, truth := newRecalibrator(t, nil)
	var swaps []Recalibration
	rec.OnSwap(func(r Recalibration, info *ModelInfo) {
		swaps = append(swaps, r)
		if info.Version != r.Version {
			t.Errorf("OnSwap info version %d != recalibration version %d", info.Version, r.Version)
		}
	})

	remote := cost.NewModels()
	for _, a := range plan.Algos {
		src, _ := truth.For(a)
		reg := src.(*cost.Regression)
		remote.Set(a, cost.NewRegression(fmt.Sprintf("fb7-%s", a), reg.Linear))
	}

	if !rec.Install(7, remote, 42) {
		t.Fatal("Install of a newer version returned false")
	}
	cur := rec.Current()
	if cur.Version != 7 || cur.TrainedOn != 42 || cur.Models != remote {
		t.Fatalf("Current = %+v after install", cur)
	}
	if len(swaps) != 1 || swaps[0].Version != 7 || swaps[0].Samples != 42 {
		t.Fatalf("swaps = %+v, want one swap to version 7", swaps)
	}

	// Idempotence: same version again, then an older one.
	if rec.Install(7, remote, 42) {
		t.Error("re-installing the live version returned true")
	}
	if rec.Install(3, remote, 1) {
		t.Error("installing an older version returned true")
	}
	if rec.Install(9, nil, 0) {
		t.Error("installing a nil model set returned true")
	}
	if len(swaps) != 1 {
		t.Errorf("OnSwap fired %d times, want 1", len(swaps))
	}
	if rec.Current().Version != 7 {
		t.Errorf("version = %d after rejected installs, want 7", rec.Current().Version)
	}
}

// TestInstallThenRecalibrateContinuesVersions checks that a local
// recalibration after an install picks up from the installed version, so
// fleet-wide version numbers stay monotonic no matter where a
// recalibration runs.
func TestInstallThenRecalibrateContinuesVersions(t *testing.T) {
	rec, truth := newRecalibrator(t, nil)
	remote := cost.NewModels()
	for _, a := range plan.Algos {
		src, _ := truth.For(a)
		remote.Set(a, cost.NewRegression(fmt.Sprintf("fb5-%s", a), src.(*cost.Regression).Linear))
	}
	if !rec.Install(5, remote, 10) {
		t.Fatal("install failed")
	}
	feedGrid(t, rec)
	r, err := rec.Recalibrate()
	if err != nil {
		t.Fatal(err)
	}
	if r.Version != 6 {
		t.Errorf("post-install recalibration version = %d, want 6", r.Version)
	}
	for _, name := range rec.Current().ModelNames() {
		if !strings.HasPrefix(name, "fb6-") {
			t.Errorf("model %q not renamed to the fb6 version", name)
		}
	}
}

// TestRecalibrateRefusesVersionWrap: at the largest version a
// recalibration cannot publish a newer one. It fails and leaves the live
// set in place rather than wrapping to version 0, which every peer would
// hold as older than its own.
func TestRecalibrateRefusesVersionWrap(t *testing.T) {
	rec, truth := newRecalibrator(t, nil)
	if !rec.Install(math.MaxUint64, truth, 10) {
		t.Fatal("install failed")
	}
	live := rec.Current()
	swaps := 0
	rec.OnSwap(func(Recalibration, *ModelInfo) { swaps++ })
	feedGrid(t, rec)
	if r, err := rec.Recalibrate(); err == nil {
		t.Fatalf("recalibration at version %d published version %d", live.Version, r.Version)
	}
	if cur := rec.Current(); cur != live {
		t.Errorf("live set moved to version %d, want %d unchanged", cur.Version, live.Version)
	}
	if swaps != 0 || rec.Recalibrations() != 0 {
		t.Errorf("failed recalibration ran %d swap hooks and counted %d recalibrations", swaps, rec.Recalibrations())
	}
}
