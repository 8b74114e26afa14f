package history

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/parent_store and its golden.json")

// The checked-in store under testdata/parent_store and the answers in its
// golden.json were written by the commit *before* the dense-window sketch
// and the ordered bucket container landed (map-based sketch, map-keyed
// buckets). TestParentStoreGolden opens a copy with the current code and
// requires the same answers, bit for bit, and byte-equal rollup logs — the
// cross-commit form of "format unchanged, either layout reads the other's
// blocks". It uses only the package's exported surface, so -update can be
// run on any commit.

const parentStoreDir = "testdata/parent_store"

var parentStoreCfg = Config{
	SegmentMaxBytes: 1 << 10,
	RawRetention:    3600,
	Retention1m:     9 * 3600,
}

// parentStoreBase is hour-aligned, so minute and hour bucket edges are easy
// to reason about below.
const parentStoreBase = 1_699_999_200

var parentStoreSeries = []string{"g.latency", "g.relerr", "g.flat"}

// goldenValue is a deterministic value pattern that spreads over the
// sketch's range and hits its special cases: zeros, negatives, tiny values
// below the sketch floor, and one huge value per cycle.
func goldenValue(series, i int) float64 {
	switch {
	case series == 2:
		return float64(i % 3) // flat counter-like series, zeros included
	case i%17 == 0:
		return 0
	case i%19 == 0:
		return -1.5
	case i%23 == 0:
		return 1e-12
	case i%29 == 0:
		return 4e9
	}
	return 0.003 * float64(1+(i*7919+series*31)%4000)
}

// buildParentStore writes the store: segment 0 (two early hours, aged out
// and deleted by raw retention, so it survives only as the compacted
// historic block after the reopen), segment 1 (sealed, ten hours later),
// and an active segment 2 whose points straddle segment 1's last minute,
// arrive out of order, and include one that lands in a historic bucket.
func buildParentStore(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, parentStoreCfg)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]*Series, len(parentStoreSeries))
	for i, name := range parentStoreSeries {
		if series[i], err = st.Series(name); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	emit := func(ts int64) {
		for j, s := range series {
			st.Append(s, ts, goldenValue(j, n))
		}
		n++
	}
	commit := func() {
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Segment 0: two hours, every 6 minutes, each third tick stepping back
	// 200 s (out of order within and across commits).
	var early int64
	for i := int64(0); st.Stats().SealedTotal == 0; i++ {
		early = parentStoreBase + i*360
		if i%3 == 2 {
			early -= 200
		}
		emit(early)
		if i%4 == 3 {
			commit()
		}
	}
	// Segment 1: ten hours on, every 45 s; its first commit ages segment 0
	// out of raw retention.
	late := int64(parentStoreBase + 10*3600)
	var last int64
	for i := int64(0); st.Stats().SealedTotal == 1; i++ {
		last = late + i*45
		emit(last)
		if i%5 == 4 {
			commit()
		}
	}
	if st.Stats().RetainedTotal == 0 {
		t.Fatal("segment 0 was not deleted by raw retention")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: compaction folds segment 0's aggregates into the historic block.
	if st, err = Open(dir, parentStoreCfg); err != nil {
		t.Fatal(err)
	}
	for i, name := range parentStoreSeries {
		if series[i], err = st.Series(name); err != nil {
			t.Fatal(err)
		}
	}
	// Active segment 2: same minute as segment 1's tail, then forward, then
	// back into segment 1's range, then one point in a historic minute.
	for _, ts := range []int64{last + 1, last + 2, last + 70, last + 400, last - 300, last - 299, last + 900, early + 5, last + 905} {
		emit(ts)
	}
	commit()
	if got := st.Stats(); got.SealedTotal != 0 || got.Segments != 1 {
		t.Fatalf("want one sealed and one active segment, got %+v", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// goldenQuery is one Query answer; each bucket is one line, "start count"
// then sum, min, max, mean, p50, p90, p99 as float64 bit patterns in hex.
type goldenQuery struct {
	Series         string
	From, To, Step int64
	Buckets        []string
}

type goldenQuantile struct {
	Series   string
	From, To int64
	Q        float64
	Value    string // float64 bit pattern, hex
	N        int64
}

type goldenStore struct {
	Queries   []goldenQuery
	Quantiles []goldenQuantile
	// Rollup logs as rewritten by Open, and again after more commits sealed
	// another segment onto them.
	Rollup1mAfterOpen, Rollup1hAfterOpen string
	Rollup1mAfterSeal, Rollup1hAfterSeal string
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// parentStoreAnswers opens the store at dir and collects every answer the
// golden file pins.
func parentStoreAnswers(t *testing.T, dir string) goldenStore {
	t.Helper()
	st, err := Open(dir, parentStoreCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	readLogs := func() (string, string) {
		var out [2]string
		for i, name := range []string{"rollup-1m.log", "rollup-1h.log"} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = hex.EncodeToString(data)
		}
		return out[0], out[1]
	}
	var g goldenStore
	g.Rollup1mAfterOpen, g.Rollup1hAfterOpen = readLogs()

	const lo, hi = parentStoreBase - 3600, parentStoreBase + 12*3600
	type span struct{ from, to int64 }
	spans := []span{
		{lo, hi},
		{parentStoreBase + 10*3600 + 17, parentStoreBase + 10*3600 + 1999}, // unaligned, inside segment 1
		{parentStoreBase + 6000, parentStoreBase + 10*3600 + 100},          // historic tail into segment 1
	}
	for _, name := range parentStoreSeries {
		for _, step := range []int64{10, 60, 3600} {
			for _, sp := range spans {
				rows, err := st.Query(name, sp.from, sp.to, step)
				if err != nil {
					t.Fatal(err)
				}
				q := goldenQuery{Series: name, From: sp.from, To: sp.to, Step: step, Buckets: []string{}}
				for i := range rows {
					b := &rows[i]
					q.Buckets = append(q.Buckets, fmt.Sprintf("%d %d %s %s %s %s %s %s %s", b.Start, b.Count,
						bits(b.Sum), bits(b.Min), bits(b.Max), bits(b.Mean()),
						bits(b.Quantile(0.5)), bits(b.Quantile(0.9)), bits(b.Quantile(0.99))))
				}
				g.Queries = append(g.Queries, q)
			}
		}
		// The first span starts behind the 1m retention horizon and is
		// answered from the 1h level; the others from the 1m level.
		for _, sp := range spans {
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
				v, n, err := st.QuantileRange(name, sp.from, sp.to, q)
				if err != nil {
					t.Fatal(err)
				}
				g.Quantiles = append(g.Quantiles, goldenQuantile{Series: name, From: sp.from, To: sp.to, Q: q, Value: bits(v), N: n})
			}
		}
	}

	// Seal one more segment on top of the recovered logs: the block a live
	// seal appends must be byte-equal too.
	series := make([]*Series, len(parentStoreSeries))
	for i, name := range parentStoreSeries {
		if series[i], err = st.Series(name); err != nil {
			t.Fatal(err)
		}
	}
	sealed := st.Stats().SealedTotal
	for i := 0; st.Stats().SealedTotal == sealed; i++ {
		ts := int64(parentStoreBase + 11*3600 + i*50)
		if i%4 == 3 {
			ts -= 120
		}
		for j, s := range series {
			st.Append(s, ts, goldenValue(j, 1000+i))
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	g.Rollup1mAfterSeal, g.Rollup1hAfterSeal = readLogs()
	return g
}

func TestParentStoreGolden(t *testing.T) {
	if *update {
		buildParentStore(t, parentStoreDir)
	}
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join(parentStoreDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range names {
		if filepath.Base(src) == "golden.json" {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := parentStoreAnswers(t, dir)

	goldenPath := filepath.Join(parentStoreDir, "golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenStore
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Queries) != len(want.Queries) || len(got.Quantiles) != len(want.Quantiles) {
		t.Fatalf("answer shape: %d queries / %d quantiles, golden has %d / %d",
			len(got.Queries), len(got.Quantiles), len(want.Queries), len(want.Quantiles))
	}
	for i := range want.Queries {
		if !reflect.DeepEqual(got.Queries[i], want.Queries[i]) {
			t.Errorf("Query(%s, %d, %d, %d):\n got %q\nwant %q", want.Queries[i].Series,
				want.Queries[i].From, want.Queries[i].To, want.Queries[i].Step, got.Queries[i].Buckets, want.Queries[i].Buckets)
		}
	}
	for i := range want.Quantiles {
		if got.Quantiles[i] != want.Quantiles[i] {
			t.Errorf("QuantileRange: got %+v, want %+v", got.Quantiles[i], want.Quantiles[i])
		}
	}
	for _, c := range []struct{ name, got, want string }{
		{"rollup-1m.log after Open", got.Rollup1mAfterOpen, want.Rollup1mAfterOpen},
		{"rollup-1h.log after Open", got.Rollup1hAfterOpen, want.Rollup1hAfterOpen},
		{"rollup-1m.log after a seal", got.Rollup1mAfterSeal, want.Rollup1mAfterSeal},
		{"rollup-1h.log after a seal", got.Rollup1hAfterSeal, want.Rollup1hAfterSeal},
	} {
		if c.got != c.want {
			t.Errorf("%s differs from the parent commit's bytes (%d vs %d hex chars)", c.name, len(c.got), len(c.want))
		}
	}
}
