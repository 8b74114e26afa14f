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

// Query returns series' aggregates over [from, to) at step-second
// resolution, oldest first. The source resolution is chosen automatically:
// steps under a minute scan raw segments, steps under an hour aggregate
// the 1m rollups, anything coarser the 1h rollups (step is rounded up to
// a multiple of the source width). Rollup-backed queries cannot split a
// source bucket, so [from, to) widens outward to the source grid — a
// partially covered minute or hour is included whole. Only committed
// points are visible. Empty windows produce no bucket (rows are sparse,
// not zero-filled). A range that leaves int64 on the output grid — a step
// that rounds up past MaxInt64, or a from whose step-aligned bucket would
// start below MinInt64 — is an error.
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
	var lv *level // nil: raw segments
	switch {
	case step >= 3600:
		lv = st.lv1h
	case step >= 60:
		lv = st.lv1m
	}
	if lv != nil && step%lv.width != 0 {
		if step > math.MaxInt64/lv.width*lv.width {
			return nil, fmt.Errorf("history: step %d rounds up past the largest step", step)
		}
		step = (step/lv.width + 1) * lv.width
	}
	if !alignable(from, step) {
		return nil, fmt.Errorf("history: from %d aligns below the earliest time at step %d", from, step)
	}
	if lv == nil {
		return st.queryRawLocked(s.id, from, to, step)
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
//
// A first pass sizes the answer: the output buckets, and for each the
// union of its sources' sketch windows, which is the window merging them
// leaves it with. One slab holds all those windows, each output sketch
// starting on an empty slice of its share, so the merges fill it without
// growing it: the rows and the slab are the query's two allocations.
func (st *Store) queryLevelLocked(lv *level, sid uint32, from, to, step int64) []Bucket {
	lo := alignDown(from, lv.width)
	all := mergeRun{lv.persisted.span(sid, lo, to), lv.active.span(sid, lo, to)}
	n, words := 0, 0
	for r := all; r.more(); n++ {
		_, k, w := r.window(step)
		r.skip(k)
		words += w
	}
	out, slab := make([]Bucket, n), make([]int64, words)
	r := all
	for i := range out {
		start, k, w := r.window(step)
		out[i].Start = start
		if w > 0 {
			out[i].sk.counts, slab = slab[:0:w], slab[w:]
		}
		for ; k > 0; k-- {
			out[i].merge(r.next())
		}
	}
	return out
}

// mergeRun walks a level's persisted and active buckets of one series in
// merge order: ascending start, persisted first on a tie.
type mergeRun struct{ p, a []*Bucket }

func (r *mergeRun) more() bool { return len(r.p) > 0 || len(r.a) > 0 }

func (r *mergeRun) next() *Bucket {
	var b *Bucket
	if len(r.a) == 0 || (len(r.p) > 0 && r.p[0].Start <= r.a[0].Start) {
		b, r.p = r.p[0], r.p[1:]
	} else {
		b, r.a = r.a[0], r.a[1:]
	}
	return b
}

func (r *mergeRun) skip(k int) {
	for ; k > 0; k-- {
		r.next()
	}
}

// window looks at the sources of the next output bucket without taking
// them: its step-aligned start, how many sources it merges and the width
// of the union of their sketch windows.
func (r mergeRun) window(step int64) (start int64, k, width int) {
	lo, hi := 0, -1
	for r.more() {
		b := r.next()
		s := alignDown(b.Start, step)
		if k > 0 && s != start {
			break
		}
		start, k = s, k+1
		if n := len(b.sk.counts); n > 0 {
			l, h := int(b.sk.lo), int(b.sk.lo)+n-1
			if hi < lo {
				lo, hi = l, h
			} else {
				lo, hi = min(lo, l), max(hi, h)
			}
		}
	}
	return start, k, hi - lo + 1
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
	rows := make([]Bucket, 0, out.n)
	for _, e := range out.entries() {
		rows = append(rows, *e.b)
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
	if !alignable(from, lv.width) {
		return 0, 0, fmt.Errorf("history: from %d aligns below the earliest time", from)
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
