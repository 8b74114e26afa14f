package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"raqo/internal/history"
)

// parentWriteHistory is the tail of handleHistory as it was before the
// fixed-shape encoder: the HistoryResponse built from the rows and sent
// through WriteResult. writeHistory is held to its status, headers and
// bytes.
func parentWriteHistory(w http.ResponseWriter, series string, from, to, step int64, rows []history.Bucket) {
	resp := HistoryResponse{
		Series:  series,
		From:    from,
		To:      to,
		Step:    step,
		Buckets: make([]HistoryBucket, len(rows)),
	}
	for i := range rows {
		b := &rows[i]
		q := b.Quantiles(0.5, 0.9, 0.99)
		resp.Buckets[i] = HistoryBucket{
			Start: b.Start,
			Count: b.Count,
			Sum:   b.Sum,
			Min:   b.Min,
			Max:   b.Max,
			Mean:  b.Mean(),
			P50:   q[0],
			P90:   q[1],
			P99:   q[2],
		}
	}
	WriteResult(w, resp)
}

// checkHistoryJSON answers rows with writeHistory and parentWriteHistory
// and fails unless both sent the same status, headers and bytes. It
// returns whether the fixed-shape encoder wrote the answer.
func checkHistoryJSON(t *testing.T, series string, from, to, step int64, rows []history.Bucket) bool {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writeHistory(got, series, from, to, step, rows)
	parentWriteHistory(want, series, from, to, step, rows)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("series %q, %d rows:\n answered %d %q\n parent   %d %q",
			series, len(rows), got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
	}
	if !reflect.DeepEqual(got.Header(), want.Header()) {
		t.Fatalf("series %q: headers %v, parent %v", series, got.Header(), want.Header())
	}
	_, fixed := appendHistoryResponse(nil, series, from, to, step, rows)
	return fixed
}

// storeRows answers a step-60 query over n minutes of a store fed values
// spread over six decades, so the rows carry real sketch quantiles.
func storeRows(t *testing.T, n int) []history.Bucket {
	t.Helper()
	st, err := history.Open(t.TempDir(), history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Series("h.rows")
	if err != nil {
		t.Fatal(err)
	}
	st.Append(s, -1, 1) // the series exists with n == 0
	for ts := int64(0); ts < int64(n)*60; ts += 7 {
		st.Append(s, ts, math.Pow(10, float64(ts%13)/2-3))
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query("h.rows", 0, int64(n)*60+1, 60)
	if err != nil || len(rows) != n {
		t.Fatalf("%d rows, err=%v; want %d", len(rows), err, n)
	}
	return rows
}

// historyValues are floats across the range and every format switch of
// encoding/json: exponent form below 1e-6 and from 1e21, integral values,
// both zeros, subnormals and the extremes.
var historyValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.5, 0.1, 1e-300, 1e300, -1e300, 1e-7, 1e-6, 9.999999e-7,
	1e20, 1e21, 123456789012345680000, 1e100, 5e-324, math.SmallestNonzeroFloat64 * 3,
	math.MaxFloat64, -math.MaxFloat64, 12345.678, 1 << 53, 0.30000000000000004,
}

func TestHistoryJSONMatchesWriteResult(t *testing.T) {
	for _, n := range []int{0, 1, 10, 85} {
		if !checkHistoryJSON(t, "feedback.relerr.hive.query", 1700000000, 1700003600, 60, storeRows(t, n)) {
			t.Errorf("%d store rows fell back to WriteResult", n)
		}
	}

	var rows []history.Bucket
	for i, v := range historyValues {
		for j, w := range historyValues {
			if (i+j)%3 == 0 {
				rows = append(rows, history.Bucket{Start: int64(i*100 + j), Count: int64(1 + j%4), Sum: v, Min: w, Max: v})
			}
		}
	}
	rows = append(rows, history.Bucket{Start: -60}) // empty: mean 0
	if !checkHistoryJSON(t, "s", -math.MaxInt64, math.MaxInt64, 1, rows) {
		t.Error("finite rows fell back to WriteResult")
	}

	// A value encoding/json refuses is the parent's 500, whichever member.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, b := range []history.Bucket{{Count: 1, Sum: bad}, {Count: 1, Min: bad}, {Count: 1, Max: bad}} {
			if checkHistoryJSON(t, "s", 0, 120, 60, append(storeRows(t, 2), b)) {
				t.Errorf("%+v: fixed-shape encoder wrote a non-finite value", b)
			}
		}
	}
	w := httptest.NewRecorder()
	writeHistory(w, "s", 0, 1, 1, []history.Bucket{{Count: 1, Sum: math.NaN()}})
	if w.Code != http.StatusInternalServerError {
		t.Errorf("NaN row answered %d, want 500", w.Code)
	}

	// Names encoding/json would escape, or might, go through it.
	for _, name := range []string{`a"b`, `a\b`, "<b>", "a&b", "a>b", "ctl\x01", "tab\t", "héllo", "lsep ", "bad\xff"} {
		if checkHistoryJSON(t, name, 0, 600, 60, storeRows(t, 1)) {
			t.Errorf("series %q: fixed-shape encoder wrote a name that needs escaping", name)
		}
	}
}

// FuzzHistoryJSON holds writeHistory to the parent on arbitrary series
// names and rows decoded from arbitrary bytes: 40 bytes a row (start,
// count and the bits of sum, min and max), quantiles from an empty sketch
// or, when the first byte is odd, rows from a real store ahead of them.
func FuzzHistoryJSON(f *testing.F) {
	f.Add("feedback.relerr.hive.query", int64(1700000000), int64(1700000600), int64(60), []byte{1})
	f.Add(`a"b`, int64(0), int64(1), int64(1), []byte{})
	f.Add("s", int64(-1), int64(math.MaxInt64), int64(math.MinInt64), bytes.Repeat([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 1}, 5))
	f.Fuzz(func(t *testing.T, series string, from, to, step int64, data []byte) {
		var rows []history.Bucket
		if len(data) > 0 && data[0]%2 == 1 {
			rows = storeRows(t, int(data[0]%16))
		}
		word := func(k int) uint64 { return binary.LittleEndian.Uint64(data[k : k+8]) }
		for ; len(data) >= 40; data = data[40:] {
			rows = append(rows, history.Bucket{
				Start: int64(word(0)),
				Count: int64(word(8)),
				Sum:   math.Float64frombits(word(16)),
				Min:   math.Float64frombits(word(24)),
				Max:   math.Float64frombits(word(32)),
			})
		}
		checkHistoryJSON(t, series, from, to, step, rows)
	})
}
