package feedback

import (
	"fmt"
	"math"
	"sort"
	"strings"
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

// quantileIdx is the position of the q-quantile among n sorted samples
// (nearest-rank, deterministic).
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

// quantile returns the q-quantile of the window's samples: the one
// sort.Float64s would put at quantileIdx, found by selection over a copy
// in buf (grown as needed and returned for reuse).
func (w *window) quantile(q float64, buf []float64) (float64, []float64) {
	n := w.len()
	if n == 0 {
		return 0, buf
	}
	idx := quantileIdx(q, n)
	buf = append(buf[:0], w.errs[:n]...)
	v := selectFloat(buf, idx)
	if (v == 0 || v != v) && equalOrderOtherBits(buf, v) {
		// Zeros of both signs, or NaNs of different payloads: which one
		// sort.Float64s leaves at idx depends on its algorithm, so ask it,
		// on the window in its own order. (Relative errors are never -0.)
		buf = append(buf[:0], w.errs[:n]...)
		sort.Float64s(buf)
		v = buf[idx]
	}
	return v, buf
}

// equalOrderOtherBits reports whether vs holds a value that floatLess
// orders equal to v but whose bits differ from v's.
func equalOrderOtherBits(vs []float64, v float64) bool {
	for _, x := range vs {
		if !floatLess(x, v) && !floatLess(v, x) && math.Float64bits(x) != math.Float64bits(v) {
			return true
		}
	}
	return false
}

// floatLess is sort.Float64s's order: ascending, NaN first.
func floatLess(x, y float64) bool { return x < y || (x != x && y == y) }

// selectFloat reorders v around v[k] and returns the value sort.Float64s
// would leave at k: Hoare's selection over the same order. (Values that
// order equal are the same number, short of the sign of a zero or a NaN's
// payload.)
func selectFloat(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		p := v[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for floatLess(v[i], p) {
				i++
			}
			for floatLess(p, v[j]) {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k] // between the two halves, equal to the pivot
		}
	}
	return v[k]
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
	scratch []float64            // guarded by mu; Stats' selection buffer
	rec     Recorder             // guarded by mu
	hist    SeriesQuantiler      // guarded by mu
	lhCfg   LongHorizonConfig    // guarded by mu
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
// A history store here is what feeds the long-horizon mode.
func (d *Detector) SetRecorder(rec Recorder) {
	d.mu.Lock()
	d.rec = rec
	d.mu.Unlock()
}

// SetHistory enables history-backed long-horizon drift detection against
// the given quantile source (zero-value cfg selects the documented
// defaults).
func (d *Detector) SetHistory(q SeriesQuantiler, cfg LongHorizonConfig) {
	d.mu.Lock()
	d.hist = q
	d.lhCfg = cfg.withDefaults()
	d.mu.Unlock()
}

// SeriesLister enumerates stored series (satisfied by history.Store);
// when the long-horizon quantile source also implements it, the detector
// checks every persisted error series, including classes observed only
// before the last restart.
type SeriesLister interface {
	SeriesNames() []string
}

// LongHorizonStats compares recent against day-scale baseline error
// quantiles per class as of `now` (unix seconds, caller's clock — wall or
// virtual). Returns nil when SetHistory has not been called.
func (d *Detector) LongHorizonStats(now int64) ([]LongHorizonStat, error) {
	d.mu.Lock()
	hist, cfg := d.hist, d.lhCfg
	names := make([]string, 0, len(d.windows))
	for k := range d.windows {
		names = append(names, RelErrSeries(k.engine, k.class))
	}
	d.mu.Unlock()
	if hist == nil {
		return nil, nil
	}
	if lister, ok := hist.(SeriesLister); ok {
		names = names[:0]
		for _, name := range lister.SeriesNames() {
			if strings.HasPrefix(name, RelErrSeriesPrefix) {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return LongHorizon(hist, names, now, cfg)
}

// LongHorizonDrifted reports whether any class drifted against its
// long-horizon baseline as of `now`.
func (d *Detector) LongHorizonDrifted(now int64) (bool, error) {
	stats, err := d.LongHorizonStats(now)
	if err != nil {
		return false, err
	}
	for _, s := range stats {
		if s.Drifted {
			return true, nil
		}
	}
	return false, nil
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
