package history

import "math"

// Sketch is a deterministic log-bucketed quantile sketch (the DDSketch
// idea, stripped to what rollups need): non-negative values land in
// buckets whose bounds grow geometrically by sketchGamma, so any quantile
// is answered within ~2% relative error from a few hundred counters at
// most. Sketches merge by adding counts, which is what makes 1m → 1h
// rollups and multi-bucket range queries exact aggregations of each other.
//
// The counters are one dense window over the populated index range only —
// counts[i] is bucket index lo+i — so adding is an array increment, merging
// a slice add and a quantile one ascending scan. The index clamp bounds the
// window at 2161 counters (~17 KB); a series of relative errors spans ~300.
// The zero value is an empty sketch.
//
// Values below sketchMinValue (including zero and negatives — the store's
// quantile series are errors and latencies, which are non-negative) are
// counted in a dedicated zero bucket and report as 0 from Quantile. Min
// and max stay exact in the enclosing Bucket.
type Sketch struct {
	zero   int64
	total  int64 // zero + every counter
	lo     int16
	counts []int64
}

// Sketch resolution: gamma = 1.02 gives ~1% half-width relative error;
// index range ±1080 spans ~[5e-10, 2e9], far beyond any recorded metric.
const (
	sketchGamma  = 1.02
	sketchMinIdx = -1080
	sketchMaxIdx = 1080
)

var (
	sketchLnGamma    = math.Log(sketchGamma)
	sketchInvLnGamma = 1 / sketchLnGamma
	sketchMinValue   = math.Exp(float64(sketchMinIdx) * sketchLnGamma)
)

// sketchIdx maps a value onto its bucket index.
func sketchIdx(v float64) int16 {
	i := int(math.Floor(math.Log(v) * sketchInvLnGamma))
	if i < sketchMinIdx {
		i = sketchMinIdx
	}
	if i > sketchMaxIdx {
		i = sketchMaxIdx
	}
	return int16(i)
}

// sketchValue is the representative value of a bucket (geometric midpoint).
func sketchValue(idx int16) float64 {
	return math.Exp((float64(idx) + 0.5) * sketchLnGamma)
}

// cover widens the window to include bucket indices lo..hi.
func (s *Sketch) cover(lo, hi int16) {
	if len(s.counts) == 0 {
		s.lo = lo
	}
	if lo < s.lo {
		n, shift := len(s.counts), int(s.lo-lo)
		s.counts = append(s.counts, make([]int64, shift)...)
		copy(s.counts[shift:], s.counts[:n])
		clear(s.counts[:shift])
		s.lo = lo
	}
	if need := int(hi-s.lo) + 1; need > len(s.counts) {
		s.counts = append(s.counts, make([]int64, need-len(s.counts))...)
	}
}

// Add records one value.
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN records a value n times (merging pre-counted evidence).
func (s *Sketch) AddN(v float64, n int64) {
	if n <= 0 {
		return
	}
	s.total += n
	if v < sketchMinValue || math.IsNaN(v) {
		s.zero += n
		return
	}
	idx := sketchIdx(v)
	if i := int(idx) - int(s.lo); i < 0 || i >= len(s.counts) {
		s.cover(idx, idx)
	}
	s.counts[idx-s.lo] += n
}

// Merge adds another sketch's counts into s.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	s.zero += o.zero
	s.total += o.total
	if len(o.counts) == 0 {
		return
	}
	if len(s.counts) == 0 {
		s.lo = o.lo
		s.counts = append(s.counts[:0], o.counts...)
		return
	}
	s.cover(o.lo, o.lo+int16(len(o.counts)-1))
	dst := s.counts[o.lo-s.lo:]
	for i, c := range o.counts {
		dst[i] += c
	}
}

// populated counts the non-empty buckets — what the sketch costs on disk.
func (s *Sketch) populated() int {
	n := 0
	for _, c := range s.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// Count returns the number of recorded values.
func (s *Sketch) Count() int64 { return s.total }

// Quantile returns the q-quantile (q in [0,1], nearest-rank over bucket
// counts, deterministic). An empty sketch yields 0.
func (s *Sketch) Quantile(q float64) float64 {
	qs := [1]float64{q}
	s.quantiles(qs[:])
	return qs[0]
}

// quantiles overwrites each qs[i] with the qs[i]-quantile. Ascending qs
// are answered in one pass over the window; a q below its predecessor
// restarts the scan.
func (s *Sketch) quantiles(qs []float64) {
	// i is the bucket the scan stands on (-1: the zero bucket) and seen the
	// values counted up to and including it.
	i, seen, prev := -1, s.zero, int64(0)
	for j, q := range qs {
		if s.total == 0 {
			qs[j] = 0
			continue
		}
		rank := int64(math.Ceil(q * float64(s.total)))
		if rank < 1 {
			rank = 1
		}
		if rank > s.total {
			rank = s.total
		}
		if rank < prev {
			i, seen = -1, s.zero
		}
		prev = rank
		// rank <= total = zero + every counter, so this stops inside the
		// window, on a non-empty bucket.
		for seen < rank {
			i++
			seen += s.counts[i]
		}
		if i < 0 {
			qs[j] = 0
		} else {
			qs[j] = sketchValue(s.lo + int16(i))
		}
	}
}
