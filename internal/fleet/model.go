package fleet

import (
	"fmt"

	"raqo/internal/cost"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/stats"
)

// This file is the fleet's model-distribution wire format. A
// recalibration runs on whichever node owns the feedback journal's shard;
// the resulting versioned model set ("fb<version>-<algo>") is flattened
// to regression coefficients, pushed to every peer via POST
// /v1/fleet/model, and pulled by the health prober from any peer that
// reports a newer version than the local one (which is what re-converges
// a node that was down during the push). Installation goes through
// feedback.Recalibrator.Install, so the version guard makes the exchange
// idempotent and the local memos are dropped exactly once per adopted
// version.

// ModelWire is one published cost-model version on the wire.
type ModelWire struct {
	// Origin is the node ID that trained (or re-published) this version.
	Origin string `json:"origin"`
	// Version is the fleet-wide model version; nodes install strictly
	// newer versions only.
	Version uint64 `json:"version"`
	// TrainedOn is the profile-sample count behind this version.
	TrainedOn int `json:"trainedOn"`
	// PublishedUnixNanos stamps the publication for propagation-lag
	// telemetry; 0 when unknown (e.g. a pull of the seed version).
	PublishedUnixNanos int64 `json:"publishedUnixNanos,omitempty"`
	// Models lists one fitted regression per join algorithm.
	Models []ModelEntry `json:"models"`
}

// ModelEntry is one algorithm's regression: the versioned model name plus
// the fitted linear coefficients over the paper's feature vector.
type ModelEntry struct {
	Algo      string    `json:"algo"`
	Name      string    `json:"name"`
	Coef      []float64 `json:"coef"`
	Intercept float64   `json:"intercept"`
	Unfloored bool      `json:"unfloored,omitempty"`
}

// EncodeModelInfo flattens a live model version for publication. Every
// distributed model must be a *cost.Regression — the only model kind
// whose parameters round-trip; an opaque ModelFunc cannot cross the wire.
func EncodeModelInfo(origin string, info *feedback.ModelInfo, publishedUnixNanos int64) (*ModelWire, error) {
	w := &ModelWire{
		Origin:             origin,
		Version:            info.Version,
		TrainedOn:          info.TrainedOn,
		PublishedUnixNanos: publishedUnixNanos,
	}
	for _, a := range plan.Algos {
		m, ok := info.Models.For(a)
		if !ok {
			continue
		}
		reg, ok := m.(*cost.Regression)
		if !ok {
			return nil, fmt.Errorf("fleet: model %q for %s is not a regression; cannot distribute", m.Name(), a)
		}
		w.Models = append(w.Models, ModelEntry{
			Algo:      a.String(),
			Name:      reg.Name(),
			Coef:      reg.Linear.Coef,
			Intercept: reg.Linear.Intercept,
			Unfloored: reg.Unfloored,
		})
	}
	if len(w.Models) == 0 {
		return nil, fmt.Errorf("fleet: model version %d has no distributable models", info.Version)
	}
	return w, nil
}

// Decode rebuilds the cost-model set from the wire form.
func (w *ModelWire) Decode() (*cost.Models, error) {
	if w.Version == 0 {
		return nil, fmt.Errorf("fleet: model wire missing version")
	}
	if len(w.Models) == 0 {
		return nil, fmt.Errorf("fleet: model wire version %d has no models", w.Version)
	}
	out := cost.NewModels()
	for _, e := range w.Models {
		algo, err := parseAlgo(e.Algo)
		if err != nil {
			return nil, err
		}
		if e.Name == "" {
			return nil, fmt.Errorf("fleet: model for %s missing name", e.Algo)
		}
		if len(e.Coef) != stats.NumFeatures {
			return nil, fmt.Errorf("fleet: model %q has %d coefficients, want %d", e.Name, len(e.Coef), stats.NumFeatures)
		}
		coef := append([]float64(nil), e.Coef...)
		reg := cost.NewRegression(e.Name, &stats.LinearModel{Coef: coef, Intercept: e.Intercept})
		reg.Unfloored = e.Unfloored
		out.Set(algo, reg)
	}
	return out, nil
}

// parseAlgo maps a wire algorithm label back to its plan.JoinAlgo.
func parseAlgo(s string) (plan.JoinAlgo, error) {
	for _, a := range plan.Algos {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown join algorithm %q", s)
}
