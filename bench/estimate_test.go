package main

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSplitWindows(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{
		{1000, 20, 20}, {1003, 20, 20}, {7, 20, 7}, {20, 20, 20}, {0, 20, 0},
	} {
		wins := splitWindows(tc.n, tc.k)
		if len(wins) != tc.want {
			t.Fatalf("splitWindows(%d, %d) made %d windows, want %d", tc.n, tc.k, len(wins), tc.want)
		}
		next, min, max := 0, tc.n, 0
		for _, w := range wins {
			if w.lo != next || w.hi <= w.lo {
				t.Fatalf("splitWindows(%d, %d): window %+v does not continue at %d", tc.n, tc.k, w, next)
			}
			next = w.hi
			if size := w.hi - w.lo; size < min {
				min = size
			} else if size > max {
				max = size
			}
		}
		if next != tc.n {
			t.Errorf("splitWindows(%d, %d) covers %d ops", tc.n, tc.k, next)
		}
		if len(wins) > 1 && max-min > 1 {
			t.Errorf("splitWindows(%d, %d): sizes range %d..%d", tc.n, tc.k, min, max)
		}
	}
}

func TestMedianAndMin(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

// A burst that slows a quarter of the windows moves the mean but not the
// window median — the reason metrics are medians over windows.
func TestWindowMedianIgnoresBursts(t *testing.T) {
	windows := make([]float64, numWindows)
	for i := range windows {
		windows[i] = 100
	}
	for i := 3; i < 8; i++ {
		windows[i] = 400
	}
	if got := median(windows); got != 100 {
		t.Errorf("window median = %g, want 100", got)
	}
}

// A box that runs at half speed for the second half of a run doubles every
// latency there and doubles the reference with them; the reported values
// are the ones at nominal speed, and the run is not called unstable.
func TestSummarizeDividesOutSlowness(t *testing.T) {
	spec := specByName("serve_warm")
	const perWindow = 200
	n := numWindows * perWindow
	ops := make([]op, n)
	tm := &timing{start: make([]int64, n), end: make([]int64, n), failed: make([]bool, n)}
	slow := make([]float64, numWindows+1)
	for w := range slow {
		slow[w] = 1
		if w > numWindows/2 {
			slow[w] = 2
		}
	}
	slow[numWindows/2] = 1.5 // the slice between the two halves sees the shift half-way
	now := int64(0)
	for i := range ops {
		ops[i].class = uint8(i % len(spec.classes))
		w := i / perWindow
		lat := int64(100_000) // 100 us at nominal speed
		if i%10 == 9 {
			lat = 500_000
		}
		if w >= numWindows/2 {
			lat *= 2
		}
		tm.start[i], tm.end[i] = now, now+lat
		now += lat
	}
	s := summarize(spec, ops, tm, 1, slow)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.02*want {
			t.Errorf("%s = %g, want %g within 2%%", name, got, want)
		}
	}
	near("p50_us", s.P50US, 100)
	near("p90_us", s.P90US, 100) // nearest rank: the 180th of 200 is still a fast op
	near("ops_per_s", s.OpsPerS, 1e6/140)
	near("slowness", s.Slowness, 1.5)
	if s.RawP50US <= s.P50US {
		t.Errorf("raw p50 %g should exceed the normalised %g on a slow box", s.RawP50US, s.P50US)
	}
	if !s.Stable {
		t.Errorf("a box that slowed down was reported as an unstable system (drift %g, %g)", s.DriftOps, s.DriftP50)
	}
	// Without the reference the same timings are a 2x level shift.
	if raw := summarize(spec, ops, tm, 1, nil); raw.Stable {
		t.Error("a 2x level shift passed the guard without the reference")
	}
}

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, tail := percentile(xs, 0.90)
	if v != 90 || tail != 10 {
		t.Errorf("p90 of 1..100 = %g with %d beyond, want 90 with 10", v, tail)
	}
	if tail < minTail {
		t.Errorf("100 samples must satisfy the %d-beyond rule at p90", minTail)
	}
	// 99 samples leave only 9 beyond p90: not reportable.
	if _, tail := percentile(xs[:99], 0.90); tail >= minTail {
		t.Errorf("99 samples leave %d beyond p90, rule wants that below %d", tail, minTail)
	}
	// p99 needs a thousand samples for ten beyond it.
	if _, tail := percentile(xs, 0.99); tail >= minTail {
		t.Errorf("p99 of 100 samples has %d beyond", tail)
	}
	if v, tail := percentile([]float64{7}, 0.5); v != 7 || tail != 0 {
		t.Errorf("p50 of one sample = %g, %d", v, tail)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the benchmark driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4}, 1, 4},
	} {
		q1, q3 := quartiles(tc.xs)
		if !approx(q1, tc.q1) || !approx(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !approx(got, 5.5/5.5) {
		t.Errorf("iqrShare = %g, want 1", got)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare of one value = %g", got)
	}
}

func TestStationarityGuard(t *testing.T) {
	flat := make([]float64, numWindows)
	for i := range flat {
		flat[i] = 1000 + float64(i%3) // jitter, no trend
	}
	if ok, drift := stationary(flat); !ok {
		t.Errorf("flat series reported unstable (drift %g)", drift)
	}
	// Throughput decaying 2.5% per window (state growing with the run)
	// loses ~28% between the early and late thirds.
	decay := make([]float64, numWindows)
	for i := range decay {
		decay[i] = 1000 * math.Pow(0.975, float64(i))
	}
	ok, drift := stationary(decay)
	if ok || drift > -stationaryTolerance {
		t.Errorf("decaying series passed the guard (ok=%v drift=%g)", ok, drift)
	}
	// A burst in the middle third is not drift.
	burst := append([]float64(nil), flat...)
	for i := numWindows * 8 / 20; i < numWindows*12/20; i++ {
		burst[i] = 300
	}
	if ok, _ := stationary(burst); !ok {
		t.Error("a mid-run burst tripped the stationarity guard")
	}
	// 9% apart passes, 11% apart fails.
	step := func(late float64) []float64 {
		s := make([]float64, numWindows)
		for i := range s {
			s[i] = 100
			if i >= numWindows*13/20 {
				s[i] = late
			}
		}
		return s
	}
	if ok, _ := stationary(step(109)); !ok {
		t.Error("9% drift failed the guard")
	}
	if ok, _ := stationary(step(111)); ok {
		t.Error("11% drift passed the guard")
	}
}

func TestModeBoundaryCheck(t *testing.T) {
	clear := func(cs []latencyClass) bool {
		b := modeBoundaries(cs)
		ok50, _ := quantileClear(b, 50)
		ok90, _ := quantileClear(b, 90)
		return ok50 && ok90
	}
	// A 50/50 mix of a fast and a slow kind puts p50 on the cliff.
	if clear([]latencyClass{{"fast", 0.5, 90}, {"slow", 0.5, 490}}) {
		t.Error("a 50/50 mix passed: p50 lies on the mode boundary")
	}
	// 75/25 keeps the boundary 25 points from p50 and 15 from p90.
	if !clear([]latencyClass{{"fast", 0.75, 90}, {"slow", 0.25, 490}}) {
		t.Error("a 75/25 mix was rejected")
	}
	// A boundary at 92 is 2 points from p90.
	if clear([]latencyClass{{"a", 0.32, 80}, {"b", 0.60, 240}, {"c", 0.08, 3000}}) {
		t.Error("a mix whose slow mode starts at the 92nd percentile passed")
	}
	// 4.9 points is too close, 5.0 is the limit.
	if clear([]latencyClass{{"fast", 0.451, 100}, {"slow", 0.549, 500}}) {
		t.Error("a boundary 4.9 points below p50 passed")
	}
	if !clear([]latencyClass{{"fast", 0.45, 100}, {"slow", 0.55, 500}}) {
		t.Error("a boundary 5 points below p50 was rejected")
	}
	// Kinds whose medians are within modeRatio share one mode: no cliff.
	b := modeBoundaries([]latencyClass{{"q12", 0.25, 46}, {"q3", 0.25, 53}, {"q2", 0.25, 62}, {"all", 0.25, 360}})
	if len(b) != 1 || !approx(b[0], 75) {
		t.Errorf("boundaries = %v, want one at 75", b)
	}
	// Order of the input does not matter; classes are ranked by median.
	b = modeBoundaries([]latencyClass{{"slow", 0.25, 360}, {"fast", 0.75, 50}})
	if len(b) != 1 || !approx(b[0], 75) {
		t.Errorf("boundaries = %v, want one at 75", b)
	}
	// A class with no ops makes no boundary.
	if b := modeBoundaries([]latencyClass{{"fast", 1, 50}, {"absent", 0, 0}}); len(b) != 0 {
		t.Errorf("boundaries = %v, want none", b)
	}
	if ok, nearest := quantileClear(nil, 50); !ok || !math.IsInf(nearest, 1) {
		t.Errorf("no boundaries: ok=%v nearest=%g", ok, nearest)
	}
}
