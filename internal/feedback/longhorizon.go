package feedback

import (
	"fmt"
	"sort"
	"strings"
)

// Recorder receives timestamped scalar samples. internal/history's Store
// satisfies it structurally (Record stages a point on a name-keyed
// series); defining the interface here keeps feedback free of a history
// import, and history free of any repo import at all.
type Recorder interface {
	Record(series string, ts int64, value float64)
}

// SeriesStore is the read side the long-horizon comparison needs from a
// history store: its series names, and a quantile over a series' rollup
// sketches plus how many points backed it. internal/history's Store
// satisfies it structurally.
type SeriesStore interface {
	SeriesNames() []string
	QuantileRange(series string, from, to int64, q float64) (value float64, n int64, err error)
}

// RelErrSeriesPrefix prefixes the per-(engine, class) relative-error
// series the Detector records; the suffix is "<engine>.<class>".
const RelErrSeriesPrefix = "feedback.relerr."

// RelErrSeries names the history series holding one (engine, operator
// class) window's relative prediction errors.
func RelErrSeries(engine, class string) string {
	return RelErrSeriesPrefix + engine + "." + class
}

// splitRelErrSeries inverts RelErrSeries; ok is false for foreign names.
func splitRelErrSeries(series string) (engine, class string, ok bool) {
	rest, found := strings.CutPrefix(series, RelErrSeriesPrefix)
	if !found {
		return "", "", false
	}
	engine, class, found = strings.Cut(rest, ".")
	return engine, class, found && engine != "" && class != ""
}

// LongHorizonConfig tunes history-backed drift detection: instead of the
// Detector's in-memory window of recent samples, LongHorizon compares the recent error
// quantile of each (engine, class) series against a day-scale baseline
// read from the history rollups — catching slow drift that never spikes
// hard enough to trip the windowed detector, which is exactly the regime
// the paper's re-optimization loop is meant for. A class is flagged when
// its last hour's p90 relative error is at least 10% and more than double
// the p90 of the preceding day.
type LongHorizonConfig struct {
	// MinRecent / MinBaseline are the evidence floors (points per window)
	// below which a class cannot flag; 0 selects 32 and 256.
	MinRecent   int64
	MinBaseline int64
}

// Long-horizon constants: the windows (seconds), the compared quantile,
// the flagging factor and error floor, and the evidence-floor defaults.
const (
	recentWindow        = 3600
	baselineWindow      = 24 * 3600
	longHorizonQuantile = 0.9
	longHorizonFactor   = 2.0
	longHorizonMinError = 0.1
	DefaultMinRecent    = 32
	DefaultMinBaseline  = 256
)

func (c LongHorizonConfig) withDefaults() LongHorizonConfig {
	if c.MinRecent <= 0 {
		c.MinRecent = DefaultMinRecent
	}
	if c.MinBaseline <= 0 {
		c.MinBaseline = DefaultMinBaseline
	}
	return c
}

// LongHorizonStat is one (engine, class)'s long-horizon comparison.
type LongHorizonStat struct {
	Engine        string  `json:"engine"`
	Class         string  `json:"class"`
	RecentError   float64 `json:"recentError"`   // quantile over the recent window
	BaselineError float64 `json:"baselineError"` // quantile over the baseline window
	RecentN       int64   `json:"recentN"`
	BaselineN     int64   `json:"baselineN"`
	Drifted       bool    `json:"drifted"`
}

// LongHorizon compares the recent error quantile of every RelErrSeries
// in st — every class ever recorded, before any restart too — against its
// day-scale baseline as of `now` (unix seconds, wall or virtual — the
// caller owns the clock). The series are read in name order; results are
// sorted by (engine, class).
func LongHorizon(st SeriesStore, now int64, cfg LongHorizonConfig) ([]LongHorizonStat, error) {
	cfg = cfg.withDefaults()
	var series []string
	for _, name := range st.SeriesNames() {
		if strings.HasPrefix(name, RelErrSeriesPrefix) {
			series = append(series, name)
		}
	}
	sort.Strings(series)
	out := make([]LongHorizonStat, 0, len(series))
	for _, name := range series {
		engine, class, ok := splitRelErrSeries(name)
		if !ok {
			continue
		}
		recent, recentN, err := st.QuantileRange(name, now-recentWindow, now, longHorizonQuantile)
		if err != nil {
			return nil, fmt.Errorf("feedback: long-horizon %s: %w", name, err)
		}
		baseFrom := now - recentWindow - baselineWindow
		base, baseN, err := st.QuantileRange(name, baseFrom, now-recentWindow, longHorizonQuantile)
		if err != nil {
			return nil, fmt.Errorf("feedback: long-horizon %s: %w", name, err)
		}
		out = append(out, LongHorizonStat{
			Engine:        engine,
			Class:         class,
			RecentError:   recent,
			BaselineError: base,
			RecentN:       recentN,
			BaselineN:     baseN,
			Drifted: recentN >= cfg.MinRecent && baseN >= cfg.MinBaseline &&
				recent >= longHorizonMinError && recent > longHorizonFactor*base,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Engine != out[j].Engine {
			return out[i].Engine < out[j].Engine
		}
		return out[i].Class < out[j].Class
	})
	return out, nil
}
