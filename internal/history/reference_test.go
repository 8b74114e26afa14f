package history

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSketch is the map-based sketch the dense window replaced, kept
// verbatim (renamed) as the oracle: the differential test and FuzzSketch
// hold the production Sketch to its counts, its quantiles bit for bit and
// its on-disk bytes.
type refSketch struct {
	zero   int64
	counts map[int16]int64
}

func newRefSketch() *refSketch {
	return &refSketch{counts: make(map[int16]int64)}
}

func (s *refSketch) Add(v float64) {
	if v < sketchMinValue || math.IsNaN(v) {
		s.zero++
		return
	}
	s.counts[sketchIdx(v)]++
}

func (s *refSketch) AddN(v float64, n int64) {
	if n <= 0 {
		return
	}
	if v < sketchMinValue || math.IsNaN(v) {
		s.zero += n
		return
	}
	s.counts[sketchIdx(v)] += n
}

func (s *refSketch) Merge(o *refSketch) {
	if o == nil {
		return
	}
	s.zero += o.zero
	for idx, n := range o.counts {
		s.counts[idx] += n
	}
}

func (s *refSketch) Count() int64 {
	n := s.zero
	for _, c := range s.counts {
		n += c
	}
	return n
}

func (s *refSketch) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	if rank <= s.zero {
		return 0
	}
	seen := s.zero
	for _, idx := range s.sortedIdx() {
		seen += s.counts[idx]
		if seen >= rank {
			return sketchValue(idx)
		}
	}
	return 0 // unreachable: counts sum to total
}

func (s *refSketch) sortedIdx() []int16 {
	idx := make([]int16, 0, len(s.counts))
	for i := range s.counts {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx
}

// refEncodeSketch is the sketch part of the old encodeRollupBlock: the zero
// count, the bucket count, then ascending [i16 index][i64 count] pairs.
func refEncodeSketch(s *refSketch) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.zero))
	idxs := s.sortedIdx()
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(idxs)))
	for _, idx := range idxs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(idx))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.counts[idx]))
	}
	return buf
}

// newSketch keeps the tests written against the pointer-typed sketch
// reading as they did; the zero Sketch needs no constructor.
func newSketch() *Sketch { return new(Sketch) }

// sketchPair is the production sketch and the oracle fed the same stream.
type sketchPair struct {
	got *Sketch
	ref *refSketch
}

func newSketchPair() sketchPair { return sketchPair{newSketch(), newRefSketch()} }

func (p sketchPair) add(v float64) { p.got.Add(v); p.ref.Add(v) }

func (p sketchPair) addN(v float64, n int64) { p.got.AddN(v, n); p.ref.AddN(v, n) }

func (p sketchPair) merge(o sketchPair) { p.got.Merge(o.got); p.ref.Merge(o.ref) }

// check holds the pair equal in count, in 101 quantiles (single reads, and
// the multi-quantile pass in both ascending and descending order) and in
// encoded bytes.
func (p sketchPair) check(t testing.TB) {
	t.Helper()
	if got, want := p.got.Count(), p.ref.Count(); got != want {
		t.Fatalf("Count = %d, reference %d", got, want)
	}
	var asc, desc [101]float64
	for i := range asc {
		asc[i] = float64(i) / 100
		desc[100-i] = asc[i]
	}
	p.got.quantiles(asc[:])
	p.got.quantiles(desc[:])
	for i := 0; i <= 100; i++ {
		q := float64(i) / 100
		want := math.Float64bits(p.ref.Quantile(q))
		if got := math.Float64bits(p.got.Quantile(q)); got != want {
			t.Fatalf("Quantile(%g) = %x, reference %x", q, got, want)
		}
		if got := math.Float64bits(asc[i]); got != want {
			t.Fatalf("ascending quantiles[%g] = %x, reference %x", q, got, want)
		}
		if got := math.Float64bits(desc[100-i]); got != want {
			t.Fatalf("descending quantiles[%g] = %x, reference %x", q, got, want)
		}
	}
	b := &Bucket{Start: 60, Count: p.got.Count(), sk: *p.got}
	block := encodeRollupBlock(9, []rollupEntry{{bucketKey{sid: 1, start: 60}, b}})
	const sketchOff = 12 + entryFixedLen - 10 // block header, then the entry up to its sketch
	if want := refEncodeSketch(p.ref); !bytes.Equal(block[sketchOff:], want) {
		t.Fatalf("encoded sketch differs from the reference:\n got %x\nwant %x", block[sketchOff:], want)
	}
	// And what was written reads back as the same sketch.
	_, entries, err := decodeRollupBlock(block)
	if err != nil {
		t.Fatalf("decoding own block: %v", err)
	}
	if again := encodeRollupBlock(9, entries); !bytes.Equal(again, block) {
		t.Fatalf("block does not survive a decode/encode round trip")
	}
}

// sketchTestValue draws from the value classes the sketch treats
// differently: the zero bucket (zero, negatives, NaN, below the floor), both
// clamps, and ordinary values over a narrow or a wide range.
func sketchTestValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return -rng.Float64() * 10
	case 2:
		return math.NaN()
	case 3:
		return sketchMinValue * rng.Float64() // below the floor
	case 4:
		return sketchMinValue // the lower clamp's first bucket
	case 5:
		return 1e300 // clamps to sketchMaxIdx
	case 6:
		return math.Inf(1)
	case 7:
		return math.Exp(rng.Float64()*80 - 40) // wide
	}
	return 0.01 + rng.Float64() // narrow, like relative errors
}

func TestSketchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Several sketches fed independently, then merged in a random
		// grouping — every intermediate must match too.
		parts := make([]sketchPair, 1+rng.Intn(6))
		for i := range parts {
			parts[i] = newSketchPair()
			for n := rng.Intn(400); n > 0; n-- {
				if rng.Intn(5) == 0 {
					parts[i].addN(sketchTestValue(rng), int64(rng.Intn(7))-1) // includes n <= 0
				} else {
					parts[i].add(sketchTestValue(rng))
				}
			}
			parts[i].check(t)
		}
		for len(parts) > 1 {
			i, j := rng.Intn(len(parts)), rng.Intn(len(parts))
			if i == j {
				continue
			}
			parts[i].merge(parts[j])
			parts[i].check(t)
			parts = append(parts[:j], parts[j+1:]...)
		}
	}
}

// parentQueryLevel is queryLevelLocked as it was before the slab: each
// output bucket's sketch window grown by its merges. The slab query is
// held to its rows, sketches included.
func parentQueryLevel(lv *level, sid uint32, from, to, step int64) []Bucket {
	lo := alignDown(from, lv.width)
	p, a := lv.persisted.span(sid, lo, to), lv.active.span(sid, lo, to)
	out := make([]Bucket, 0)
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

// TestQueryLevelMatchesReference: on a store that seals often, so output
// buckets merge persisted and active sources, some of the same minute,
// the slab query returns the parent's rows at every step, and every
// sketch window fills its share of the slab exactly.
func TestQueryLevelMatchesReference(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentMaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(3))
	s, err := st.Series("q")
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 30*3600; ts += 1 + rng.Int63n(40) {
		v := math.Exp(rng.NormFloat64() * 4) // across many decades, zeros and the clamp
		if rng.Intn(20) == 0 {
			v = 0
		}
		st.Append(s, ts-rng.Int63n(90), v)
		if rng.Intn(30) == 0 {
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	sid := st.byName["q"].id
	for _, lv := range []*level{st.lv1m, st.lv1h} {
		if len(lv.persisted.span(sid, math.MinInt64, math.MaxInt64)) == 0 || len(lv.active.span(sid, math.MinInt64, math.MaxInt64)) == 0 {
			t.Fatalf("width %d: the store left no persisted or no active buckets to merge", lv.width)
		}
		for _, step := range []int64{60, 120, 300, 420, 3600, 7200, 86400} {
			if step%lv.width != 0 {
				continue
			}
			for _, r := range [][2]int64{{0, 30 * 3600}, {-1000, 1}, {3601, 3 * 3600}, {17, 18}} {
				got := st.queryLevelLocked(lv, sid, r[0], r[1], step)
				if want := parentQueryLevel(lv, sid, r[0], r[1], step); !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d step %d range %v: %d rows, parent %d, or they differ", lv.width, step, r, len(got), len(want))
				}
				for i := range got {
					if c := got[i].sk.counts; cap(c) != len(c) {
						t.Fatalf("width %d step %d: row %d window %d of capacity %d", lv.width, step, i, len(c), cap(c))
					}
				}
			}
		}
	}
}
