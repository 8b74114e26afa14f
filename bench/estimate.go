package main

import (
	"math"
	"sort"
)

// This file holds the estimators that turn per-op timings into the
// benchmark's numbers. Every one exists to make two sets of runs of the
// same commit agree on a busy shared box: the run is cut into windows,
// each window's values are divided by how slow the box was around it
// (reference.go), and each metric is the median over the windows, so a
// neighbour's burst lands in a few windows and moves no median.

// numWindows is how many equal chunks a run's ops are cut into: short
// enough (about 150 ms) that the box's speed, which shifts every second or
// so, is nearly constant across a window and the two reference slices
// around it.
const numWindows = 80

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// span is a half-open index range [lo, hi).
type span struct{ lo, hi int }

// splitWindows cuts n ops into k contiguous chunks whose sizes differ by
// at most one. k is clamped to n so no window is empty.
func splitWindows(n, k int) []span {
	if n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]span, k)
	for i := range out {
		out[i] = span{lo: i * n / k, hi: (i + 1) * n / k}
	}
	return out
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs. tail is
// how many samples lie strictly beyond the returned rank; a percentile is
// only reported when tail >= minTail.
func percentile(xs []float64, p float64) (value float64, tail int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the benchmark driver measures run-to-run spread. Needs len(xs) >= 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4 // integer part of the 1-based position
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j // fractional part in quarters, taken after the clamp as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// iqrShare is the inter-quartile range of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// stationaryTolerance bounds how far the early and late thirds of a run
// may disagree before it is reported unstable.
const stationaryTolerance = 0.10

// stationary compares the median of the first 7/20 of the windows with the
// median of the last 7/20 and reports
// whether they agree within stationaryTolerance, with the relative drift.
// It catches state that grows with the run, which a median over all
// windows would hide.
func stationary(windows []float64) (ok bool, drift float64) {
	third := len(windows) * 7 / 20
	if third < 1 {
		return true, 0
	}
	early := median(windows[:third])
	late := median(windows[len(windows)-third:])
	if early == 0 {
		return late == 0, 0
	}
	drift = (late - early) / early
	return math.Abs(drift) <= stationaryTolerance, drift
}

// modeMargin is how many percentile points must separate a reported
// quantile from the nearest boundary between latency modes.
const modeMargin = 5.0

// modeRatio is how far apart two adjacent classes' medians must be for
// the boundary between them to count as a cliff.
const modeRatio = 1.25

// latencyClass is one kind of op in a mix: its share of the ops and the
// median latency it shows.
type latencyClass struct {
	name   string
	share  float64 // fraction of ops, sums to 1 over a mix
	median float64
}

// modeBoundaries returns the percentile points (0-100) at which the mix's
// latency distribution steps from one mode to a slower one: classes are
// ordered by median and a boundary falls at the cumulative share between
// two adjacent classes whose medians differ by at least modeRatio.
func modeBoundaries(classes []latencyClass) []float64 {
	cs := append([]latencyClass(nil), classes...)
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].median < cs[j].median })
	var out []float64
	cum := 0.0
	for i := 0; i+1 < len(cs); i++ {
		cum += cs[i].share
		if cs[i].share == 0 || cs[i+1].share == 0 {
			continue
		}
		if cs[i].median <= 0 || cs[i+1].median/cs[i].median >= modeRatio {
			out = append(out, 100*cum)
		}
	}
	return out
}

// quantileClear reports whether percentile point q (e.g. 50, 90) keeps at
// least modeMargin points from every boundary, and the nearest distance.
func quantileClear(boundaries []float64, q float64) (ok bool, nearest float64) {
	nearest = math.Inf(1)
	for _, b := range boundaries {
		if d := math.Abs(b - q); d < nearest {
			nearest = d
		}
	}
	return nearest >= modeMargin, nearest
}
