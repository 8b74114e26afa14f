package history

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// fill appends n points per series starting at base, one second apart,
// with a deterministic value pattern, committing every commitEvery points.
func fill(t *testing.T, st *Store, names []string, base, n int64, commitEvery int) {
	t.Helper()
	series := make([]*Series, len(names))
	for i, name := range names {
		s, err := st.Series(name)
		if err != nil {
			t.Fatalf("Series(%s): %v", name, err)
		}
		series[i] = s
	}
	staged := 0
	for i := int64(0); i < n; i++ {
		for j, s := range series {
			st.Append(s, base+i, float64(i%97)+float64(j))
			staged++
			if staged == commitEvery {
				if err := st.Commit(); err != nil {
					t.Fatalf("Commit: %v", err)
				}
				staged = 0
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// brute aggregates the same pattern fill writes, as ground truth.
func brute(names []string, base, n, from, to, step int64, wantSeries string) map[int64]*Bucket {
	out := make(map[int64]*Bucket)
	for i := int64(0); i < n; i++ {
		ts := base + i
		for j, name := range names {
			if name != wantSeries || ts < from || ts >= to {
				continue
			}
			v := float64(i%97) + float64(j)
			start := alignDown(ts, step)
			b := out[start]
			if b == nil {
				b = &Bucket{Start: start}
				out[start] = b
			}
			b.add(v)
		}
	}
	return out
}

func checkQuery(t *testing.T, got []Bucket, want map[int64]*Bucket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for _, g := range got {
		w := want[g.Start]
		if w == nil {
			t.Fatalf("unexpected bucket at %d", g.Start)
		}
		if g.Count != w.Count || g.Sum != w.Sum || g.Min != w.Min || g.Max != w.Max {
			t.Fatalf("bucket %d: got {n=%d sum=%g min=%g max=%g}, want {n=%d sum=%g min=%g max=%g}",
				g.Start, g.Count, g.Sum, g.Min, g.Max, w.Count, w.Sum, w.Min, w.Max)
		}
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentMaxBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	names := []string{"a.latency", "b.errors"}
	const base, n = 1_700_000_000, 7200 // two hours, crosses many seals
	fill(t, st, names, base, n, 37)

	// Rollup-backed queries widen [from, to) outward to the source bucket
	// grid (they cannot split a minute or an hour); the ground truth must
	// align the same way.
	alignUp := func(ts, w int64) int64 { return alignDown(ts+w-1, w) }
	for _, tc := range []struct {
		series         string
		from, to, step int64
		width          int64 // source resolution (1 = raw)
	}{
		{"a.latency", base, base + n, 1, 1},        // raw, full range
		{"b.errors", base + 100, base + 500, 7, 1}, // raw, odd step + subrange
		{"a.latency", base, base + n, 60, 60},      // 1m level
		{"b.errors", base + 600, base + 4200, 300, 60},
		{"a.latency", base, base + n, 3600, 3600}, // 1h level
		{"a.latency", base - 10_000, base + 2*n, 60, 60},
	} {
		got, err := st.Query(tc.series, tc.from, tc.to, tc.step)
		if err != nil {
			t.Fatalf("Query(%+v): %v", tc, err)
		}
		from, to := alignDown(tc.from, tc.width), alignUp(tc.to, tc.width)
		checkQuery(t, got, brute(names, base, n, from, to, tc.step, tc.series))
	}

	// Step 90 is not a multiple of 60 and must round up to 120.
	got, err := st.Query("a.latency", base, base+600, 90)
	if err != nil {
		t.Fatal(err)
	}
	checkQuery(t, got, brute(names, base, n, alignDown(base, 60), alignUp(base+600, 60), 120, "a.latency"))

	if _, err := st.Query("nope", base, base+n, 60); err == nil {
		t.Fatal("Query on unknown series should fail")
	}
	if _, err := st.Query("a.latency", base, base, 60); err == nil {
		t.Fatal("Query with empty range should fail")
	}
	if _, err := st.Query("a.latency", base, base+n, 0); err == nil {
		t.Fatal("Query with zero step should fail")
	}
}

func TestUncommittedPointsInvisible(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Series("x")
	if err != nil {
		t.Fatal(err)
	}
	st.Append(s, 1000, 1)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	st.Append(s, 1060, 2) // staged, never committed

	for _, step := range []int64{1, 60, 3600} {
		got, err := st.Query("x", 0, 10_000, step)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, b := range got {
			total += b.Count
		}
		if total != 1 {
			t.Fatalf("step %d: staged point visible: %d points, want 1", step, total)
		}
	}
}

func TestSealReopenNoDoubleCount(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentMaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"m"}
	const base, n = 50_000, 2000
	fill(t, st, names, base, n, 11)
	want := st.Stats()
	if want.SealedTotal == 0 {
		t.Fatal("test needs at least one sealed segment")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen twice: recovery re-rolls segments and compacts the logs; the
	// totals must not drift.
	for round := 0; round < 2; round++ {
		st, err = Open(dir, Config{SegmentMaxBytes: 4 << 10})
		if err != nil {
			t.Fatalf("reopen %d: %v", round, err)
		}
		got, err := st.Query("m", 0, base+2*n, 60)
		if err != nil {
			t.Fatal(err)
		}
		checkQuery(t, got, brute(names, base, n, 0, base+2*n, 60, "m"))
		if s := st.Stats(); s.StoredPoints != want.StoredPoints {
			t.Fatalf("reopen %d: stored %d points, want %d", round, s.StoredPoints, want.StoredPoints)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTornTailRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(path string) error
	}{
		{"garbage-appended", func(path string) error {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
			return err
		}},
		{"half-block", func(path string) error {
			// A torn write: header promising a block that never arrived.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, 9, 9})
			return err
		}},
		{"flipped-byte", func(path string) error {
			// Corrupt the final committed block's payload in place: the
			// CRC catches it and recovery truncates back past it.
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0xff
			return os.WriteFile(path, data, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := st.Series("x")
			if err != nil {
				t.Fatal(err)
			}
			// Two commits: the first must survive any tear of the second.
			st.Append(s, 100, 1)
			st.Append(s, 160, 2)
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			st.Append(s, 220, 3)
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			path := st.activePath
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tc.tear(path); err != nil {
				t.Fatal(err)
			}

			st, err = Open(dir, Config{})
			if err != nil {
				t.Fatalf("reopen after tear: %v", err)
			}
			defer st.Close()
			got, err := st.Query("x", 0, 1000, 1)
			if err != nil {
				t.Fatal(err)
			}
			var n int64
			for _, b := range got {
				n += b.Count
			}
			wantN := int64(3)
			if tc.name == "flipped-byte" {
				wantN = 2 // the corrupted block is (correctly) discarded
			}
			if n != wantN {
				t.Fatalf("recovered %d points, want %d", n, wantN)
			}
			// The store must keep accepting appends after recovery.
			s, err = st.Series("x")
			if err != nil {
				t.Fatal(err)
			}
			st.Append(s, 300, 4)
			if err := st.Commit(); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
		})
	}
}

func TestRetentionDeletesRawKeepsRollups(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SegmentMaxBytes: 4 << 10,
		RawRetention:    1800,
		Retention1m:     100 * 3600,
		Retention1h:     1000 * 3600,
	}
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"r"}
	const base, n = 1_000_000, 10_000 // ~2.8h of seconds ≫ 30m retention
	fill(t, st, names, base, n, 101)

	stats := st.Stats()
	if stats.RetainedTotal == 0 {
		t.Fatal("expected retention to delete sealed segments")
	}
	// Raw points behind the retention horizon are gone...
	rawOld, err := st.Query("r", base, base+60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawOld) != 0 {
		t.Fatalf("raw query over retained range returned %d buckets", len(rawOld))
	}
	// ...but the 1m rollups still answer for the full range, exactly.
	got, err := st.Query("r", base, base+n, 60)
	if err != nil {
		t.Fatal(err)
	}
	checkQuery(t, got, brute(names, base, n, base, base+n, 60, "r"))

	// And the whole thing survives close + reopen (compaction folds the
	// deleted segments' aggregates into the historic block).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err = st.Query("r", base, base+n, 60)
	if err != nil {
		t.Fatal(err)
	}
	checkQuery(t, got, brute(names, base, n, base, base+n, 60, "r"))
}

func TestQuantileRangeAccuracy(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Series("lat")
	if err != nil {
		t.Fatal(err)
	}
	const base = 2_000_000
	var exact []float64
	for i := 0; i < 5000; i++ {
		v := 0.001 * float64(1+(i*7919)%10_000) // deterministic spread over (0, 10]
		exact = append(exact, v)
		st.Append(s, base+int64(i), v)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, n, err := st.QuantileRange("lat", base, base+5000, q)
		if err != nil {
			t.Fatal(err)
		}
		if n != 5000 {
			t.Fatalf("q%g covered %d points, want 5000", q, n)
		}
		rank := int(math.Ceil(q*5000)) - 1
		want := exact[rank]
		if rel := math.Abs(got-want) / want; rel > 0.025 {
			t.Fatalf("q%g: got %g, want %g (rel err %.3f > 2.5%%)", q, got, want, rel)
		}
	}
	if _, n, err := st.QuantileRange("lat", base-1000, base-100, 0.5); err != nil || n != 0 {
		t.Fatalf("empty-window quantile: n=%d err=%v, want 0, nil", n, err)
	}
	if _, _, err := st.QuantileRange("nope", base, base+1, 0.5); err == nil {
		t.Fatal("QuantileRange on unknown series should fail")
	}
}

func TestSketchMergeEquivalence(t *testing.T) {
	a, b, all := newSketch(), newSketch(), newSketch()
	for i := 0; i < 1000; i++ {
		v := float64(1+(i*104_729)%5000) / 100
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		all.Add(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d != direct %d", a.Count(), all.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.999} {
		if ma, mall := a.Quantile(q), all.Quantile(q); ma != mall {
			t.Fatalf("q%g: merged %g != direct %g", q, ma, mall)
		}
	}
	// Sub-minimum and NaN values land in the zero bucket and report as 0.
	z := newSketch()
	z.Add(0)
	z.Add(-5)
	z.Add(math.NaN())
	if z.Count() != 3 || z.Quantile(0.99) != 0 {
		t.Fatalf("zero-bucket sketch: count=%d q99=%g", z.Count(), z.Quantile(0.99))
	}
}

func TestSeriesRegistryTornLine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Series("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Series("beta"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-registration: a torn final line.
	f, err := os.OpenFile(filepath.Join(dir, "series.idx"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("2 gam"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.SeriesNames(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("SeriesNames after torn line: %v", got)
	}
	// The id the torn line would have taken is reusable.
	s, err := st.Series("gamma")
	if err != nil {
		t.Fatal(err)
	}
	if s.id != 2 {
		t.Fatalf("gamma got id %d, want 2", s.id)
	}
}

func TestSeriesNameValidation(t *testing.T) {
	st, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, bad := range []string{"", "has space", "has\nnewline"} {
		if _, err := st.Series(bad); err == nil {
			t.Fatalf("Series(%q) should fail", bad)
		}
	}
	// Record on an invalid name sticks and surfaces at Commit.
	st.Record("also bad", 100, 1)
	if err := st.Commit(); err == nil {
		t.Fatal("Commit should surface the sticky Record error")
	}
	if err := st.Commit(); err != nil {
		t.Fatalf("error should not stick twice: %v", err)
	}
}

func TestDeterministicFileBytes(t *testing.T) {
	run := func(dir string) {
		st, err := Open(dir, Config{SegmentMaxBytes: 4 << 10, RawRetention: 1800})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, st, []string{"d.one", "d.two"}, 3_000_000, 4000, 23)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen once so compaction runs too.
		st, err = Open(dir, Config{SegmentMaxBytes: 4 << 10, RawRetention: 1800})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	run(dirA)
	run(dirB)

	pathsA, err := filepath.Glob(filepath.Join(dirA, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pathsA) == 0 {
		t.Fatal("no files produced")
	}
	for _, pa := range pathsA {
		pb := filepath.Join(dirB, filepath.Base(pa))
		da, err := os.ReadFile(pa)
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(pb)
		if err != nil {
			t.Fatalf("file %s missing from second run: %v", filepath.Base(pa), err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("file %s differs between identical runs", filepath.Base(pa))
		}
	}
}

func TestConcurrentRecordQuery(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentMaxBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const workers, perWorker = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("c.%d", w)
			for i := 0; i < perWorker; i++ {
				st.Record(name, 4_000_000+int64(i), float64(i))
				if i%100 == 99 {
					if err := st.Commit(); err != nil {
						t.Errorf("Commit: %v", err)
						return
					}
					if _, err := st.Query(name, 4_000_000, 4_010_000, 60); err != nil {
						t.Errorf("Query: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for w := 0; w < workers; w++ {
		got, err := st.Query(fmt.Sprintf("c.%d", w), 0, 5_000_000, 3600)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			total += b.Count
		}
	}
	if total != workers*perWorker {
		t.Fatalf("committed %d points, want %d", total, workers*perWorker)
	}
}

// TestRollupBlockRoundTripZeroOnlySketch is the unit regression for a
// decoder over-read: a bucket whose sketch holds only the zero bucket
// (every value below sketchMinValue) encodes to the 54-byte fixed entry
// with no sketch buckets, and the decoder must not demand more.
func TestRollupBlockRoundTripZeroOnlySketch(t *testing.T) {
	b := &Bucket{Start: 60}
	b.add(0)
	entries := []rollupEntry{{bucketKey{sid: 7, start: 60}, b}}
	segID, got, err := decodeRollupBlock(encodeRollupBlock(3, entries))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if segID != 3 || len(got) != 1 {
		t.Fatalf("segID=%d entries=%d", segID, len(got))
	}
	g := got[0].b
	if g.Count != 1 || g.Sum != 0 || g.sk.zero != 1 || len(g.sk.counts) != 0 {
		t.Fatalf("decoded bucket %+v sketch %+v", g, g.sk)
	}
}

// TestZeroValueRollupReopen is the end-to-end form: seal a segment whose
// only point is a zero (a flat counter), close, and reopen — the rollup
// log ends in a zero-only-sketch entry and Open must still succeed.
func TestZeroValueRollupReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentMaxBytes: 1}) // seal on every commit
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Series("flat")
	if err != nil {
		t.Fatal(err)
	}
	st.Append(s, 1000, 0)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().SealedTotal != 1 {
		t.Fatalf("segment not sealed: %+v", st.Stats())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen after zero-only rollup block: %v", err)
	}
	defer st.Close()
	got, err := st.Query("flat", 0, 2000, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 1 || got[0].Sum != 0 || got[0].Quantile(0.99) != 0 {
		t.Fatalf("buckets = %+v", got)
	}
}

// TestStatsAfterFinalCommitSeal covers the window between a seal and the
// next openActive: the sealed segment's points and bytes must be counted
// once from the sealed list, not again from stale active counters.
func TestStatsAfterFinalCommitSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentMaxBytes: 1}) // seal on every commit
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Series("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		st.Append(s, 1000+i, float64(i))
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	got := st.Stats()
	if got.Segments != 1 || got.SealedTotal != 1 {
		t.Fatalf("expected one sealed segment: %+v", got)
	}
	if got.StoredPoints != 5 {
		t.Fatalf("StoredPoints = %d, want 5 (sealed points double-counted?)", got.StoredPoints)
	}
	info, err := os.Stat(filepath.Join(dir, "seg-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	if got.SegmentBytes != info.Size() {
		t.Fatalf("SegmentBytes = %d, want on-disk %d", got.SegmentBytes, info.Size())
	}
}

func TestStatsShape(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentMaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill(t, st, []string{"s"}, 5_000_000, 1500, 13)
	got := st.Stats()
	if got.Series != 1 || got.CommittedTotal != 1500 || got.StoredPoints != 1500 {
		t.Fatalf("Stats: %+v", got)
	}
	if got.HighWater != 5_000_000+1499 {
		t.Fatalf("HighWater = %d", got.HighWater)
	}
	if got.SealedTotal == 0 || got.Segments == 0 || got.Buckets1m == 0 || got.Buckets1h == 0 {
		t.Fatalf("Stats missing shape: %+v", got)
	}
}
