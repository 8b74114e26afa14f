package history

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnknownSeries reports a query against a series the store has never
// recorded; match with errors.Is.
var ErrUnknownSeries = errors.New("unknown series")

// Query returns series' aggregates over [from, to) at step-second
// resolution, oldest first. The source resolution is chosen automatically:
// steps under a minute scan raw segments, steps under an hour aggregate
// the 1m rollups, anything coarser the 1h rollups (step is rounded up to
// a multiple of the source width). Rollup-backed queries cannot split a
// source bucket, so [from, to) widens outward to the source grid — a
// partially covered minute or hour is included whole. Only committed
// points are visible. Empty windows produce no bucket (rows are sparse,
// not zero-filled).
func (st *Store) Query(series string, from, to, step int64) ([]Bucket, error) {
	if step <= 0 {
		return nil, fmt.Errorf("history: step must be positive, got %d", step)
	}
	if to <= from {
		return nil, fmt.Errorf("history: empty range [%d, %d)", from, to)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.byName[series]
	if !ok {
		return nil, fmt.Errorf("history: %w %q", ErrUnknownSeries, series)
	}
	if step < 60 {
		return st.queryRawLocked(s.id, from, to, step)
	}
	lv := st.lv1m
	if step >= 3600 {
		lv = st.lv1h
	}
	if step%lv.width != 0 {
		step = (step/lv.width + 1) * lv.width
	}
	return st.queryLevelLocked(lv, s.id, from, to, step), nil
}

// queryLevel aggregates a rollup level's buckets (persisted + active
// segment) into step-aligned output buckets. Both runs are ascending, so
// output buckets are emitted in order as the two are merged. The merge
// order is fixed — ascending start, persisted before active when both hold
// the same window (points straddling a seal): counts and extrema are
// order-free, but float sums are not associative, and query output must be
// bit-stable across runs.
func (st *Store) queryLevelLocked(lv *level, sid uint32, from, to, step int64) []Bucket {
	lo := alignDown(from, lv.width)
	p, a := lv.persisted.span(sid, lo, to), lv.active.span(sid, lo, to)
	out := make([]Bucket, 0, stepWindows(p, step)+stepWindows(a, step))
	for len(p) > 0 || len(a) > 0 {
		var src *Bucket
		if len(a) == 0 || (len(p) > 0 && p[0].Start <= a[0].Start) {
			src, p = p[0], p[1:]
		} else {
			src, a = a[0], a[1:]
		}
		start := alignDown(src.Start, step)
		if n := len(out); n == 0 || out[n-1].Start != start {
			out = append(out, Bucket{Start: start})
		}
		out[len(out)-1].merge(src)
	}
	return out
}

// stepWindows counts the step-aligned windows an ascending run falls in.
func stepWindows(run []*Bucket, step int64) int {
	n, prev := 0, int64(0)
	for i, b := range run {
		if w := alignDown(b.Start, step); i == 0 || w != prev {
			n, prev = n+1, w
		}
	}
	return n
}

// queryRaw scans the raw segments overlapping [from, to) and buckets the
// points at step resolution.
func (st *Store) queryRawLocked(sid uint32, from, to, step int64) ([]Bucket, error) {
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
		// time; scanBlocks (no truncation) keeps queries read-only.
		if _, err := scanBlocks(m.path, segMagic, eachPoint(m.path, fold)); err != nil {
			return nil, err
		}
	}
	if st.active != nil && st.activeCount > 0 && st.activeMax >= from && st.activeMin < to {
		if _, err := scanBlocks(st.activePath, segMagic, eachPoint(st.activePath, fold)); err != nil {
			return nil, err
		}
	}
	rows := make([]Bucket, 0, out.n)
	for _, e := range out.entries() {
		rows = append(rows, *e.b)
	}
	return rows, nil
}

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
// long-horizon drift detection (feedback.SeriesQuantiler).
func (st *Store) QuantileRange(series string, from, to int64, q float64) (float64, int64, error) {
	if to <= from {
		return 0, 0, fmt.Errorf("history: empty range [%d, %d)", from, to)
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
