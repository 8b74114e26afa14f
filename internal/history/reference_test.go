package history

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// output bucket's sketch window grown by its merges.
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

// parentRows reads the parent's buckets as its history handler did: the
// mean, then the three quantiles off each bucket's own sketch.
func parentRows(buckets []Bucket) []Row {
	rows := make([]Row, len(buckets))
	for i := range buckets {
		b := &buckets[i]
		rows[i] = Row{Start: b.Start, Count: b.Count, Sum: b.Sum, Min: b.Min, Max: b.Max,
			P50: b.sk.Quantile(0.5), P90: b.sk.Quantile(0.9), P99: b.sk.Quantile(0.99)}
		if b.Count != 0 {
			rows[i].Mean = b.Sum / float64(b.Count)
		}
	}
	return rows
}

// TestQueryLevelMatchesReference: on a store that seals often, so output
// buckets merge persisted and active sources, some of the same minute,
// the row query returns the parent's rows at every step, through both
// the one-source and the merged path, with the scratch bucket's window
// left by one query never leaking into the next.
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
	single, merged := 0, 0
	for _, lv := range []*level{st.lv1m, st.lv1h} {
		if len(lv.persisted.span(sid, math.MinInt64, math.MaxInt64)) == 0 || len(lv.active.span(sid, math.MinInt64, math.MaxInt64)) == 0 {
			t.Fatalf("width %d: the store left no persisted or no active buckets to merge", lv.width)
		}
		for _, step := range []int64{60, 120, 300, 420, 3600, 7200, 86400} {
			if step%lv.width != 0 {
				continue
			}
			for _, r := range [][2]int64{{0, 30 * 3600}, {-1000, 1}, {3601, 3 * 3600}, {17, 18}, {math.MinInt64 / step * step, math.MaxInt64}} {
				got := st.queryLevelLocked(lv, sid, r[0], r[1], step)
				parent := parentQueryLevel(lv, sid, r[0], r[1], step)
				if want := parentRows(parent); !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d step %d range %v: %d rows, parent %d, or they differ", lv.width, step, r, len(got), len(want))
				}
				for i := range parent {
					if len(lv.persisted.span(sid, parent[i].Start, parent[i].Start+step))+len(lv.active.span(sid, parent[i].Start, parent[i].Start+step)) == 1 {
						single++
					} else {
						merged++
					}
				}
			}
		}
	}
	if single == 0 || merged == 0 {
		t.Fatalf("%d one-source and %d merged rows: both paths must run", single, merged)
	}
}

// sameRowBits reports whether two row sets are equal with every float
// compared by its bits.
func sameRowBits(got, want []Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Start != w.Start || g.Count != w.Count {
			return false
		}
		for _, f := range [...][2]float64{{g.Sum, w.Sum}, {g.Min, w.Min}, {g.Max, w.Max}, {g.Mean, w.Mean}, {g.P50, w.P50}, {g.P90, w.P90}, {g.P99, w.P99}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return false
			}
		}
	}
	return true
}

// TestQuantileMemoMatchesFreshScan interleaves Record, Commit (sealing
// every few kilobytes) and Query on a store whose points land in buckets
// queries have already read, behind and ahead of a seal. Every row a query
// answers, one-source and merged, equals the parent's rows read off fresh
// sketch scans, bit for bit; and every bucket's memo, read after the run,
// equals a fresh scan of its sketch. A memo some mutation left standing
// answers a stale quantile here.
func TestQuantileMemoMatchesFreshScan(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentMaxBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(5))
	names := []string{"m.a", "m.b"}
	steps := []int64{60, 120, 3600}
	now, queries, merged, sealed := int64(0), 0, 0, st.Stats().SealedTotal
	for op := 0; op < 6000; op++ {
		switch k := rng.Intn(10); {
		case k < 6:
			now += rng.Int63n(20)
			v := math.Exp(rng.NormFloat64() * 3)
			st.Record(names[rng.Intn(2)], now-rng.Int63n(400), v)
		case k < 8:
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		default:
			name, step := names[rng.Intn(2)], steps[rng.Intn(len(steps))]
			from := now - 900 - rng.Int63n(3600)
			rows, err := st.Query(name, from, now+1, step)
			if err != nil {
				if errors.Is(err, ErrUnknownSeries) {
					continue
				}
				t.Fatal(err)
			}
			queries++
			st.mu.Lock()
			lv := st.lv1m
			if step >= 3600 {
				lv = st.lv1h
			}
			sid := st.byName[name].id
			ref := parentQueryLevel(lv, sid, from, now+1, step)
			for _, b := range ref {
				if len(lv.persisted.span(sid, b.Start, b.Start+step))+len(lv.active.span(sid, b.Start, b.Start+step)) > 1 {
					merged++
				}
			}
			st.mu.Unlock()
			if want := parentRows(ref); !sameRowBits(rows, want) {
				t.Fatalf("op %d: query %s [%d, %d) step %d:\n got %+v\nwant %+v", op, name, from, now+1, step, rows, want)
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if queries == 0 || merged == 0 || st.Stats().SealedTotal-sealed < 3 {
		t.Fatalf("%d queries, %d merged rows, %d seals: every path must run", queries, merged, st.Stats().SealedTotal-sealed)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, lv := range []*level{st.lv1m, st.lv1h} {
		for _, set := range []*bucketSet{&lv.persisted, &lv.active} {
			for _, e := range set.entries() {
				want := [3]float64{0.5, 0.9, 0.99}
				e.b.sk.quantiles(want[:])
				if got := e.b.quantiles(); got != want {
					t.Fatalf("width %d bucket %d of series %d: memo %v, fresh scan %v", lv.width, e.b.Start, e.key.sid, got, want)
				}
			}
		}
	}
}
