package feedback

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// parentQuantile is window.quantile as it was before selection: a sorted
// copy, indexed. The selection is held to its bits.
func parentQuantile(w *window, q float64) float64 {
	n := w.len()
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), w.errs[:n]...)
	sort.Float64s(sorted)
	return sorted[quantileIdx(q, n)]
}

// quantileSamples are the values the windows are drawn from: relative
// errors, duplicates, both infinities, NaN and both zeros.
var quantileSamples = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.5, 0.5, 0.25, 1, 3, 1e-9, 0.75, 2,
}

// TestQuantileSelectionMatchesSort: on windows of every fill, the
// selected quantile has the sorted copy's bits, NaN first; windows that
// hold both zeros take the sorted-copy path and must agree too.
func TestQuantileSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []float64
	for trial := 0; trial < 20000; trial++ {
		size := 1 + rng.Intn(80)
		w := &window{errs: make([]float64, size)}
		for i, n := 0, rng.Intn(2*size); i < n; i++ {
			if rng.Intn(4) == 0 {
				w.push(quantileSamples[rng.Intn(len(quantileSamples))])
			} else {
				w.push(rng.Float64() * 2)
			}
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1, rng.Float64()} {
			var got float64
			got, buf = w.quantile(q, buf)
			if want := parentQuantile(w, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window %v q=%v: selection %v (%x), sorted copy %v (%x)",
					w.errs[:w.len()], q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
