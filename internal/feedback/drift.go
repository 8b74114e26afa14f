package feedback

import (
	"fmt"
	"sort"
	"sync"
)

// DriftConfig tunes the drift detector.
type DriftConfig struct {
	// Window is how many recent samples each (engine, operator class)
	// keeps; 0 selects DefaultWindow.
	Window int
	// Quantile in (0,1] is the error quantile compared against Threshold;
	// 0 selects DefaultQuantile.
	Quantile float64
	// Threshold is the relative prediction error above which the class is
	// drifted; 0 selects DefaultThreshold (0.5 = 50% off).
	Threshold float64
	// MinSamples is how many samples a class needs before it can report
	// drift; 0 selects DefaultMinSamples.
	MinSamples int
}

// Drift detector defaults: a class is drifted once its median relative
// error over the last 64 samples exceeds 50%, with at least 16 samples of
// evidence.
const (
	DefaultWindow     = 64
	DefaultQuantile   = 0.5
	DefaultThreshold  = 0.5
	DefaultMinSamples = 16
)

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Quantile <= 0 || c.Quantile > 1 {
		c.Quantile = DefaultQuantile
	}
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	return c
}

// classKey identifies one drift window: an engine and an operator class
// (the join algorithm, matching the per-model structure of the cost side).
type classKey struct {
	engine string
	class  string
}

// window is a bounded ring of relative errors.
type window struct {
	errs   []float64
	next   int
	full   bool
	series string // RelErrSeries of the window's class, built once
}

func (w *window) push(e float64) {
	w.errs[w.next] = e
	w.next++
	if w.next == len(w.errs) {
		w.next = 0
		w.full = true
	}
}

func (w *window) len() int {
	if w.full {
		return len(w.errs)
	}
	return w.next
}

// quantileIdx is the position of the q-quantile among n sorted samples:
// ⌊q·n⌋−1, clamped to the samples, so the ⌊q·n⌋-th smallest. That is the
// nearest rank (stats.Percentile's ⌈q·n⌉-th) only where q·n is a whole
// number; elsewhere it is the sample one below, so the median of a
// 17-sample window is its 8th smallest. The feedback figure's drift flags
// pin this rule.
func quantileIdx(q float64, n int) int {
	idx := int(q*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// quantile returns the q-quantile of the window's samples: a sorted copy
// in buf (grown as needed and returned for reuse), indexed at quantileIdx.
func (w *window) quantile(q float64, buf []float64) (float64, []float64) {
	n := w.len()
	if n == 0 {
		return 0, buf
	}
	buf = append(buf[:0], w.errs[:n]...)
	sort.Float64s(buf)
	return buf[quantileIdx(q, n)], buf
}

// quantileExceeds reports quantile(q) > threshold without sorting: the
// sample at sorted position idx exceeds the threshold exactly when at least
// n-idx samples do. (A NaN sample sorts first and never exceeds, in both.)
func (w *window) quantileExceeds(q, threshold float64) bool {
	n := w.len()
	if n == 0 {
		return false
	}
	above := 0
	for _, e := range w.errs[:n] {
		if e > threshold {
			above++
		}
	}
	return above >= n-quantileIdx(q, n)
}

// ClassStats is the drift state of one (engine, operator class) window.
type ClassStats struct {
	Engine        string  `json:"engine"`
	Class         string  `json:"class"` // operator class, e.g. "SMJ"
	Samples       int     `json:"samples"`
	QuantileError float64 `json:"quantileError"` // error at the configured quantile
	Drifted       bool    `json:"drifted"`
}

// Detector tracks windowed relative-error quantiles per (engine, operator
// class) and reports drift when any sufficiently-sampled class's quantile
// error exceeds the threshold. Safe for concurrent use.
type Detector struct {
	cfg DriftConfig

	mu      sync.Mutex
	windows map[classKey]*window // guarded by mu
	scratch []float64            // guarded by mu; Stats' sort buffer
	rec     Recorder             // guarded by mu
}

// NewDetector builds a drift detector (zero-value fields in cfg select the
// documented defaults).
func NewDetector(cfg DriftConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), windows: make(map[classKey]*window)}
}

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() DriftConfig { return d.cfg }

// SetRecorder streams every error sample the detector sees into rec
// (series named by RelErrSeries, timestamped by Observation.ObservedAt).
// A history store here is what LongHorizon reads.
func (d *Detector) SetRecorder(rec Recorder) {
	d.mu.Lock()
	d.rec = rec
	d.mu.Unlock()
}

// Observe feeds one observation: ObserveBatch of one.
func (d *Detector) Observe(o Observation) {
	d.ObserveBatch([]Observation{o})
}

// ObserveBatch feeds each observation's operator samples into the
// per-class windows, under one acquisition of the lock. The query-level
// prediction error is tracked under the pseudo class "query" so drift is
// detectable even for observations without operator detail. With a
// recorder attached, every sample also streams into its RelErrSeries at
// the observation's ObservedAt timestamp.
func (d *Detector) ObserveBatch(obs []Observation) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range obs {
		o := &obs[i]
		d.pushLocked(o.Engine, "query", o.ObservedAt, o.RelError())
		for j := range o.Operators {
			s := &o.Operators[j]
			d.pushLocked(o.Engine, s.Algo, o.ObservedAt, s.RelError())
		}
	}
}

func (d *Detector) pushLocked(engine, class string, at int64, e float64) {
	k := classKey{engine, class}
	w := d.windows[k]
	if w == nil {
		w = &window{errs: make([]float64, d.cfg.Window), series: RelErrSeries(engine, class)}
		d.windows[k] = w
	}
	w.push(e)
	if d.rec != nil {
		d.rec.Record(w.series, at, e)
	}
}

// Drifted reports whether any class currently exceeds the drift threshold
// — any(Stats().Drifted), answered with one counting pass per window: it
// runs on every feedback acknowledgement.
func (d *Detector) Drifted() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	//raqolint:ignore maprange "does any window exceed" has the same answer in every order
	for _, w := range d.windows {
		if w.len() >= d.cfg.MinSamples && w.quantileExceeds(d.cfg.Quantile, d.cfg.Threshold) {
			return true
		}
	}
	return false
}

// Stats returns the per-class drift state, sorted by (engine, class) so
// the output is deterministic regardless of map iteration order.
func (d *Detector) Stats() []ClassStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]classKey, 0, len(d.windows))
	for k := range d.windows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].engine != keys[j].engine {
			return keys[i].engine < keys[j].engine
		}
		return keys[i].class < keys[j].class
	})
	out := make([]ClassStats, 0, len(keys))
	for _, k := range keys {
		w := d.windows[k]
		var q float64
		q, d.scratch = w.quantile(d.cfg.Quantile, d.scratch)
		out = append(out, ClassStats{
			Engine:        k.engine,
			Class:         k.class,
			Samples:       w.len(),
			QuantileError: q,
			Drifted:       w.len() >= d.cfg.MinSamples && q > d.cfg.Threshold,
		})
	}
	return out
}

// Reset clears every window — called after a recalibration so the new
// model is judged only on its own predictions.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.windows = make(map[classKey]*window)
}

// String summarizes the detector state for logs.
func (d *Detector) String() string {
	stats := d.Stats()
	drifted := 0
	for _, s := range stats {
		if s.Drifted {
			drifted++
		}
	}
	return fmt.Sprintf("drift{classes=%d drifted=%d}", len(stats), drifted)
}
