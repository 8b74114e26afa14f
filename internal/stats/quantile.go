package stats

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the values: the ⌈p/100·n⌉-th smallest of n. The input is not modified;
// an empty input yields 0. The rule is exact (no interpolation), which
// keeps report output byte-stable. It is not the drift detector's
// windowed rule (feedback's ⌊q·n⌋-th smallest): where p/100·n is not a
// whole number the two pick neighbouring samples, so the median of 17
// values is the 9th here and the 8th there. The figures pin both.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
