package experiments

import (
	"fmt"

	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/stats"
	"raqo/internal/workload"
)

// FeedbackConvergence demonstrates the execution-feedback loop the serving
// layer closes (not a paper figure — the adaptivity the paper's Section
// VII leaves as future work): a deliberately miscalibrated cost model
// receives accurate execution feedback in batches, the drift detector
// fires, online recalibration retrains and swaps the model, and the
// held-out prediction error collapses to the trained model's.
func FeedbackConvergence() (*Report, error) {
	const skew = 4.0
	truth, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		return nil, err
	}
	seed := cost.NewModels()
	for _, a := range plan.Algos {
		m, ok := truth.For(a)
		if !ok {
			continue
		}
		reg, ok := m.(*cost.Regression)
		if !ok {
			return nil, fmt.Errorf("trained model for %s is not a regression", a)
		}
		lm := &stats.LinearModel{
			Coef:      append([]float64(nil), reg.Linear.Coef...),
			Intercept: reg.Linear.Intercept * skew,
		}
		for i := range lm.Coef {
			lm.Coef[i] *= skew
		}
		seed.Set(a, cost.NewRegression("skew-"+a.String(), lm))
	}

	// Alternate grid points stream in as feedback; the rest are held out
	// and only ever scored, so the error column measures generalization.
	// The split is stratified per algorithm — raw index parity correlates
	// with the algorithm (OOM points drop BHJ rows), which would starve one
	// model of training data.
	grid := workload.DefaultProfileGrid(execsim.Hive())
	var stream, heldOut []cost.Profile
	seen := make(map[plan.JoinAlgo]int)
	for _, p := range grid {
		if seen[p.Algo]%2 == 0 {
			stream = append(stream, p)
		} else {
			heldOut = append(heldOut, p)
		}
		seen[p.Algo]++
	}
	// The grid enumerates the feature space in order, so a prefix batch
	// would cover only the smallest inputs and the first retrain would
	// extrapolate badly. A fixed stride permutation (coprime with the
	// length) makes every batch span the space — deterministic, no RNG.
	stream = stride(stream, 37)

	cache := &resource.Cache{
		Inner:       &resource.HillClimb{},
		Mode:        resource.NearestNeighbor,
		ThresholdGB: 1,
	}
	rec := feedback.NewRecalibrator(
		feedback.NewStore(len(stream), nil),
		feedback.NewDetector(feedback.DriftConfig{MinSamples: 8}),
		seed,
	)
	// The cache column counts model swaps: each one invalidates the cache,
	// as a planner caching under the old models would have to.
	rec.OnSwap(func(feedback.Recalibration, *feedback.ModelInfo) { cache.Reset() })

	rep := &Report{
		ID:    "feedback",
		Title: "Execution feedback: online recalibration drives prediction error down",
	}
	tab := Table{
		Title:   fmt.Sprintf("held-out mean abs rel error, retraining after every batch (seed skewed %gx)", skew),
		Columns: []string{"batch", "fed", "drifted", "model", "version", "cache-gen", "held-out err"},
	}

	// The serving loop retrains only when the detector fires; this harness
	// retrains after every batch so the table charts how the error shrinks
	// as evidence accumulates. The drifted column still shows when the
	// online loop would have triggered (the first batch: the skewed seed is
	// ~300% off; afterwards the retrained model predicts its own feedback).
	const batchSize = 64
	batch := 0
	for start := 0; start < len(stream); start += batchSize {
		end := min(start+batchSize, len(stream))
		for _, o := range feedback.SyntheticObservations("hive", rec.Models(), stream[start:end]) {
			if err := rec.Feed(o); err != nil {
				return nil, err
			}
		}
		batch++
		drifted := rec.Detector().Drifted()
		if _, err := rec.Recalibrate(); err != nil {
			return nil, err
		}
		cur := rec.Current()
		tab.AddRow(
			fmt.Sprintf("%d", batch),
			fmt.Sprintf("%d", end),
			fmt.Sprintf("%v", drifted),
			cur.ModelNames()[0],
			fmt.Sprintf("%d", cur.Version),
			fmt.Sprintf("%d", cache.Stats().Generation),
			f3(feedback.MeanAbsRelError(rec.Models(), heldOut)),
		)
	}
	rep.Tables = append(rep.Tables, tab)

	before := feedback.MeanAbsRelError(seed, heldOut)
	after := feedback.MeanAbsRelError(rec.Models(), heldOut)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("held-out error %s (skewed seed) -> %s (after %d recalibrations on %d streamed observations)",
			f3(before), f3(after), rec.Recalibrations(), len(stream)),
		"replaying the same stream reproduces the same model bit for bit (feedback package determinism)",
	)
	if after >= before {
		return nil, fmt.Errorf("feedback convergence failed: held-out error %g -> %g", before, after)
	}
	return rep, nil
}

// stride reorders ps by repeatedly stepping k positions (mod len): a fixed
// permutation that visits every element once when k is coprime with the
// length, spreading any ordered structure evenly across the sequence.
func stride(ps []cost.Profile, k int) []cost.Profile {
	n := len(ps)
	if n == 0 {
		return ps
	}
	for gcd(n, k) != 1 {
		k++
	}
	out := make([]cost.Profile, 0, n)
	for i, j := 0, 0; i < n; i, j = i+1, (j+k)%n {
		out = append(out, ps[j])
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
