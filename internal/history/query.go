package history

import (
	"errors"
	"fmt"
	"math"

	"raqo/internal/applog"
)

// ErrUnknownSeries reports a query against a series the store has never
// recorded; match with errors.Is.
var ErrUnknownSeries = errors.New("unknown series")

// ErrBadQuery reports a query whose own arguments are out of domain: a
// step that is not positive or rounds up past MaxInt64, an empty range,
// a from that cannot be aligned. Match with errors.Is; any other error
// of a query is the store's.
var ErrBadQuery = errors.New("bad query")

// Row is one output bucket of a range query: a step-aligned window of one
// series with its count, sum, extrema and mean, and the p50, p90 and p99
// of its sketch (~2% relative error; 0 when the window is empty).
type Row struct {
	Start         int64
	Count         int64
	Sum, Min, Max float64
	Mean          float64 // Sum/Count, 0 when empty
	P50, P90, P99 float64
}

// row reads b as the output bucket that starts at start, its quantiles in
// one pass over its sketch. An empty b reads as the empty row, what
// merging it into an empty bucket leaves (and not a NaN mean).
func row(start int64, b *Bucket) Row {
	if b.Count == 0 {
		return Row{Start: start}
	}
	r := Row{Start: start, Count: b.Count, Sum: b.Sum, Min: b.Min, Max: b.Max}
	r.Mean = r.Sum / float64(r.Count)
	q := [3]float64{0.5, 0.9, 0.99}
	b.sk.quantiles(q[:])
	r.P50, r.P90, r.P99 = q[0], q[1], q[2]
	return r
}

// Query returns series' aggregates over [from, to) at step-second
// resolution, oldest first, computed under the store's lock. The source
// resolution is chosen automatically: steps under a minute scan raw
// segments, steps under an hour aggregate the 1m rollups, anything coarser
// the 1h rollups (step is rounded up to a multiple of the source width).
// Rollup-backed queries cannot split a source bucket, so [from, to) widens
// outward to the source grid — a partially covered minute or hour is
// included whole. Only committed points are visible. Empty windows produce
// no row (rows are sparse, not zero-filled). A range that leaves int64 on
// the output grid — a step that rounds up past MaxInt64, or a from whose
// step-aligned bucket would start below MinInt64 — is an error.
func (st *Store) Query(series string, from, to, step int64) ([]Row, error) {
	if step <= 0 {
		return nil, fmt.Errorf("history: %w: step must be positive, got %d", ErrBadQuery, step)
	}
	if to <= from {
		return nil, fmt.Errorf("history: %w: empty range [%d, %d)", ErrBadQuery, from, to)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.byName[series]
	if !ok {
		return nil, fmt.Errorf("history: %w %q", ErrUnknownSeries, series)
	}
	var lv *level // nil: raw segments
	switch {
	case step >= 3600:
		lv = st.lv1h
	case step >= 60:
		lv = st.lv1m
	}
	if lv != nil && step%lv.width != 0 {
		if step > math.MaxInt64/lv.width*lv.width {
			return nil, fmt.Errorf("history: %w: step %d rounds up past the largest step", ErrBadQuery, step)
		}
		step = (step/lv.width + 1) * lv.width
	}
	if !alignable(from, step) {
		return nil, fmt.Errorf("history: %w: from %d aligns below the earliest time at step %d", ErrBadQuery, from, step)
	}
	if lv == nil {
		return st.queryRawLocked(s.id, from, to, step)
	}
	return st.queryLevelLocked(lv, s.id, from, to, step), nil
}

// queryLevel aggregates a rollup level's buckets (persisted + active
// segment) into step-aligned rows. Both runs are ascending, so rows are
// emitted in order as the two are merged. An output bucket with one
// source is read off that source; one with several is merged into the
// store's scratch bucket first. The merge order is fixed — ascending
// start, persisted before active when both hold the same window (points
// straddling a seal): counts and extrema are order-free, but float sums
// are not associative, and query output must be bit-stable across runs.
func (st *Store) queryLevelLocked(lv *level, sid uint32, from, to, step int64) []Row {
	lo := alignDown(from, lv.width)
	r := mergeRun{lv.persisted.span(sid, lo, to), lv.active.span(sid, lo, to)}
	// At most one row per source and per step of [from, to); the
	// difference is taken unsigned, since it may exceed MaxInt64.
	n := len(r.p) + len(r.a)
	if grid := uint64(to-1-alignDown(from, step))/uint64(step) + 1; grid < uint64(n) {
		n = int(grid)
	}
	rows := make([]Row, 0, n)
	for r.more() {
		b := r.next()
		start := alignDown(b.Start, step)
		if r.more() && alignDown(r.peek().Start, step) == start {
			m := &st.merged
			*m = Bucket{Start: start, sk: Sketch{counts: m.sk.counts[:0]}}
			m.merge(b)
			for r.more() && alignDown(r.peek().Start, step) == start {
				m.merge(r.next())
			}
			b = m
		}
		rows = append(rows, row(start, b))
	}
	return rows
}

// mergeRun walks a level's persisted and active buckets of one series in
// merge order: ascending start, persisted first on a tie.
type mergeRun struct{ p, a []*Bucket }

func (r *mergeRun) more() bool { return len(r.p) > 0 || len(r.a) > 0 }

// active reports whether the next bucket comes from the active run.
func (r *mergeRun) active() bool {
	return len(r.p) == 0 || (len(r.a) > 0 && r.a[0].Start < r.p[0].Start)
}

// peek returns the next bucket without taking it.
func (r *mergeRun) peek() *Bucket {
	if r.active() {
		return r.a[0]
	}
	return r.p[0]
}

func (r *mergeRun) next() (b *Bucket) {
	if r.active() {
		b, r.a = r.a[0], r.a[1:]
	} else {
		b, r.p = r.p[0], r.p[1:]
	}
	return b
}

// queryRaw scans the raw segments overlapping [from, to) and buckets the
// points at step resolution.
func (st *Store) queryRawLocked(sid uint32, from, to, step int64) ([]Row, error) {
	var out bucketSet // points within a segment are not time-ordered
	fold := func(sidP uint32, ts int64, bits uint64) {
		if sidP == sid && ts >= from && ts < to {
			out.at(sid, alignDown(ts, step)).add(math.Float64frombits(bits))
		}
	}
	for _, m := range st.sealed {
		if m.maxTs < from || m.minTs >= to {
			continue
		}
		// Sealed segments are immutable and were verified at seal/open
		// time; the read-only scan keeps queries from writing.
		if err := applog.ScanBlocks(m.path, segMagic, eachPoint(m.path, fold)); err != nil {
			return nil, err
		}
	}
	if st.active != nil && st.activeCount > 0 && st.activeMax >= from && st.activeMin < to {
		path := st.active.Path()
		if err := applog.ScanBlocks(path, segMagic, eachPoint(path, fold)); err != nil {
			return nil, err
		}
	}
	rows := make([]Row, 0, out.n)
	for _, e := range out.entries() {
		rows = append(rows, row(e.b.Start, e.b))
	}
	return rows, nil
}

// alignable reports whether alignDown(ts, w) stays within int64. Every
// timestamp at or after an alignable one is alignable too.
func alignable(ts, w int64) bool { return ts >= math.MinInt64/w*w }

// alignDown aligns ts down to a w-second grid (correct for negative ts).
func alignDown(ts, w int64) int64 {
	if ts >= 0 {
		return ts - ts%w
	}
	return ts - (w+ts%w)%w
}

// QuantileRange answers the q-quantile of a series over [from, to) from
// the rollup sketches, plus the number of points covered ([from, to)
// widens outward to the source bucket grid, as in Query). The 1m level
// answers when its retention still covers `from`; older ranges fall back
// to the 1h level. This is the baseline read behind history-backed
// long-horizon drift detection (feedback.LongHorizon).
func (st *Store) QuantileRange(series string, from, to int64, q float64) (float64, int64, error) {
	if to <= from {
		return 0, 0, fmt.Errorf("history: %w: empty range [%d, %d)", ErrBadQuery, from, to)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.byName[series]
	if !ok {
		return 0, 0, fmt.Errorf("history: %w %q", ErrUnknownSeries, series)
	}
	lv := st.lv1m
	if from < st.hwm-st.cfg.Retention1m {
		lv = st.lv1h
	}
	if !alignable(from, lv.width) {
		return 0, 0, fmt.Errorf("history: %w: from %d aligns below the earliest time", ErrBadQuery, from)
	}
	var merged Sketch
	lo := alignDown(from, lv.width)
	for _, b := range lv.persisted.span(s.id, lo, to) {
		merged.Merge(&b.sk)
	}
	for _, b := range lv.active.span(s.id, lo, to) {
		merged.Merge(&b.sk)
	}
	n := merged.Count()
	if n == 0 {
		return 0, 0, nil
	}
	return merged.Quantile(q), n, nil
}
