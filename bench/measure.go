package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// This file reduces a run's per-op timings to the end-to-end metrics.

// classStat is one op class's observed share and median latency.
type classStat struct {
	Name     string  `json:"name"`
	Share    float64 `json:"share"`
	MedianUS float64 `json:"median_us"`
	P10US    float64 `json:"p10_us"`
	P90US    float64 `json:"p90_us"`
}

// summary is everything a measured run reports. The three timing metrics
// are at the reference's nominal speed: each window's values divided by
// how slow the box was around it, then the median over the windows. The
// raw_ fields are the same medians as measured.
type summary struct {
	OpsPerS    float64 `json:"ops_per_s"`
	P50US      float64 `json:"p50_us"`
	P90US      float64 `json:"p90_us"`
	RawOpsPerS float64 `json:"raw_ops_per_s"`
	RawP50US   float64 `json:"raw_p50_us"`
	RawP90US   float64 `json:"raw_p90_us"`
	P99US      float64 `json:"p99_us"` // as measured; recorded, not an end-to-end metric
	// Slowness is the median over the windows of measured over nominal
	// reference time, 1 at nominal speed.
	Slowness float64 `json:"slowness"`
	// IQR of each window-median metric over the windows, as a share of
	// the median: how much the windows disagree inside one run.
	OpsPerSIQR float64 `json:"ops_per_s_iqr"`
	P50IQR     float64 `json:"p50_us_iqr"`
	P90IQR     float64 `json:"p90_us_iqr"`
	Windows    int     `json:"windows"`
	// P90Tail is the smallest count of samples beyond p90 in any window;
	// P90TailOK is whether that meets the ten-samples-beyond rule.
	P90Tail   int  `json:"p90_tail_min"`
	P90TailOK bool `json:"p90_tail_ok"`
	// Stable is false when the early and late windows disagree by more
	// than stationaryTolerance on throughput or median latency.
	Stable   bool    `json:"stable"`
	DriftOps float64 `json:"drift_ops_per_s"`
	DriftP50 float64 `json:"drift_p50_us"`
	// The per-window values each median was taken over, and how slow the
	// box was around each window.
	WindowOps    []float64   `json:"window_ops_per_s"`
	WindowP50    []float64   `json:"window_p50_us"`
	WindowP90    []float64   `json:"window_p90_us"`
	WindowSlow   []float64   `json:"window_slowness"`
	Classes      []classStat `json:"classes"`
	ModeBounds   []float64   `json:"mode_boundaries"`
	ModeClear    bool        `json:"mode_clear"`
	ModeNearestP float64     `json:"mode_nearest_points"`
}

// summarize cuts the run into windows and takes medians over them.
// Throughput per window is the sum of each worker's own rate over its
// ops in the window: workers are always busy in a closed loop, so this is
// the offered-and-served rate, unaffected by how far the workers have
// drifted apart. slow[w] and slow[w+1] are the reference slices run
// before and after window w; nil means nominal speed throughout.
func summarize(spec *workloadSpec, ops []op, t *timing, workers int, slow []float64) summary {
	wins := splitWindows(len(ops), numWindows)
	s := summary{Windows: len(wins), P90Tail: -1}
	var rates, p50s, p90s, rawRates, rawP50s, rawP90s []float64
	var all []float64
	lat := make([]float64, 0, len(ops)/len(wins)+1)
	for w, win := range wins {
		f := 1.0
		if slow != nil {
			f = (slow[w] + slow[w+1]) / 2
		}
		s.WindowSlow = append(s.WindowSlow, f)
		rate := 0.0
		for k := 0; k < workers; k++ {
			first := firstOf(k, workers, win.lo)
			if first >= win.hi {
				continue
			}
			last := first + (win.hi-1-first)/workers*workers
			n := (last-first)/workers + 1
			if dt := t.end[last] - t.start[first]; dt > 0 {
				rate += float64(n) / (float64(dt) / 1e9)
			}
		}
		lat = lat[:0]
		for i := win.lo; i < win.hi; i++ {
			lat = append(lat, float64(t.end[i]-t.start[i])/1e3)
		}
		all = append(all, lat...)
		p90, tail := percentile(lat, 0.90)
		if s.P90Tail < 0 || tail < s.P90Tail {
			s.P90Tail = tail
		}
		p50 := median(lat)
		rawRates, rawP50s, rawP90s = append(rawRates, rate), append(rawP50s, p50), append(rawP90s, p90)
		rates, p50s, p90s = append(rates, rate*f), append(p50s, p50/f), append(p90s, p90/f)
	}
	s.P90TailOK = s.P90Tail >= minTail
	s.RawOpsPerS, s.RawP50US, s.RawP90US = median(rawRates), median(rawP50s), median(rawP90s)
	s.Slowness = median(s.WindowSlow)
	s.WindowOps, s.WindowP50, s.WindowP90 = rates, p50s, p90s
	s.OpsPerS, s.OpsPerSIQR = median(rates), iqrShare(rates)
	s.P50US, s.P50IQR = median(p50s), iqrShare(p50s)
	s.P90US, s.P90IQR = median(p90s), iqrShare(p90s)
	s.P99US, _ = percentile(all, 0.99)
	okOps, dOps := stationary(rates)
	okP50, dP50 := stationary(p50s)
	s.Stable, s.DriftOps, s.DriftP50 = okOps && okP50, dOps, dP50

	// Per-class shares and medians feed the mode-boundary check.
	byClass := make([][]float64, len(spec.classes))
	for i := range ops {
		c := ops[i].class
		byClass[c] = append(byClass[c], float64(t.end[i]-t.start[i])/1e3)
	}
	var lcs []latencyClass
	for c, xs := range byClass {
		share := float64(len(xs)) / float64(len(ops))
		m := median(xs)
		p10, _ := percentile(xs, 0.10)
		p90, _ := percentile(xs, 0.90)
		s.Classes = append(s.Classes, classStat{Name: spec.classes[c], Share: share, MedianUS: m, P10US: p10, P90US: p90})
		lcs = append(lcs, latencyClass{name: spec.classes[c], share: share, median: m})
	}
	s.ModeBounds = modeBoundaries(lcs)
	ok50, n50 := quantileClear(s.ModeBounds, 50)
	ok90, n90 := quantileClear(s.ModeBounds, 90)
	s.ModeClear = ok50 && ok90
	s.ModeNearestP = n50
	if n90 < n50 {
		s.ModeNearestP = n90
	}
	if len(s.ModeBounds) == 0 {
		s.ModeNearestP = 100
	}
	return s
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
