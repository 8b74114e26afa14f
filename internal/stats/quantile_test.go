package stats

import "testing"

// TestPercentileNearestRank pins the nearest-rank rule where p/100·n is
// 8.5: the ⌈8.5⌉ = 9th smallest, not the 8th (the drift detector's rule)
// nor a value between them.
func TestPercentileNearestRank(t *testing.T) {
	values := make([]float64, 17)
	for i := range values {
		values[i] = float64(17 - i) // 17 … 1: Percentile sorts a copy
	}
	if got := Percentile(values, 50); got != 9 {
		t.Errorf("Percentile(1…17, 50) = %v, want the 9th smallest, 9", got)
	}
	if values[0] != 17 {
		t.Error("Percentile reordered its input")
	}
	if got := Percentile(values[:10], 85); got != 16 {
		t.Errorf("Percentile(8…17, 85) = %v, want the 9th smallest, 16", got)
	}
}
