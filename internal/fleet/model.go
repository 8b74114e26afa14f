package fleet

import (
	"fmt"
	"math"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/stats"
	"raqo/internal/units"
)

// This file is the fleet's model-distribution wire format. A
// recalibration runs on whichever node owns the feedback journal's shard;
// the resulting versioned model set ("fb<version>-<algo>") is flattened
// to regression coefficients and served on GET /v1/fleet/model, where the
// health prober of every peer that sees a newer version pulls it. Pulling
// is the only distribution path: no endpoint accepts a model set.
// Installation goes through feedback.Recalibrator.Install, so the version
// guard makes repeated pulls idempotent and the local memos are dropped
// exactly once per adopted version.

// ModelWire is one cost-model version as GET /v1/fleet/model serves it.
type ModelWire struct {
	// Origin is the node ID that served this version.
	Origin string `json:"origin"`
	// Version is the fleet-wide model version; nodes install strictly
	// newer versions only.
	Version uint64 `json:"version"`
	// TrainedOn is the profile-sample count behind this version.
	TrainedOn int `json:"trainedOn"`
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

// EncodeModelInfo flattens a live model version for the wire. Every
// distributed model must be a *cost.Regression — the only model kind
// whose parameters round-trip; an opaque ModelFunc cannot cross the wire.
func EncodeModelInfo(origin string, info *feedback.ModelInfo) (*ModelWire, error) {
	w := &ModelWire{Origin: origin, Version: info.Version, TrainedOn: info.TrainedOn}
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

// Decode rebuilds the cost-model set from the wire form. It refuses a set
// with a model that prices a probe configuration non-finite (see
// probeFinite): such a model prices whole regions of the resource space
// NaN, and the hill climb drops the operators it meets there.
func (w *ModelWire) Decode() (*cost.Models, error) {
	if w.Version == 0 {
		return nil, fmt.Errorf("fleet: model wire missing version")
	}
	if len(w.Models) == 0 {
		return nil, fmt.Errorf("fleet: model wire version %d has no models", w.Version)
	}
	out := cost.NewModels()
	for _, e := range w.Models {
		algo, ok := plan.ParseAlgo(e.Algo)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown join algorithm %q", e.Algo)
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
		if err := probeFinite(reg); err != nil {
			return nil, err
		}
		out.Set(algo, reg)
	}
	return out, nil
}

// probeFinite prices m at the corners of cluster.Default()'s resource
// space, for a 1 MB and a 1 TB smaller input, and names m if any price is
// NaN or infinite.
func probeFinite(m cost.Model) error {
	c := cluster.Default()
	for _, ss := range [...]units.Bytes{units.MB, units.TB} {
		ssGB := float64(ss) / float64(units.GB)
		for _, nc := range [...]int{c.MinContainers, c.MaxContainers} {
			for _, gb := range [...]float64{c.MinContainerGB, c.MaxContainerGB} {
				if v := m.Cost(ssGB, gb, float64(nc)); math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("fleet: model %q prices %v at ss=%s, %d x %gGB", m.Name(), v, ss, nc, gb)
				}
			}
		}
	}
	return nil
}
