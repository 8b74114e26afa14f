package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"raqo/internal/history"
)

// parentWriteHistory is the tail of handleHistory as it was before the
// fixed-shape encoder: the HistoryResponse built from the rows and sent
// through WriteResult. writeHistory is held to its status, headers and
// bytes.
func parentWriteHistory(w http.ResponseWriter, series string, from, to, step int64, rows []history.Row) {
	resp := HistoryResponse{
		Series:  series,
		From:    from,
		To:      to,
		Step:    step,
		Buckets: make([]HistoryBucket, len(rows)),
	}
	for i := range rows {
		b := &rows[i]
		resp.Buckets[i] = HistoryBucket{
			Start: b.Start,
			Count: b.Count,
			Sum:   b.Sum,
			Min:   b.Min,
			Max:   b.Max,
			Mean:  b.Mean,
			P50:   b.P50,
			P90:   b.P90,
			P99:   b.P99,
		}
	}
	WriteResult(w, resp)
}

// checkHistoryJSON answers rows with writeHistory twice, through one row
// memo — cold, then with every row the first answer filed — and with
// parentWriteHistory, and fails unless all three sent the same status,
// headers and bytes. It returns whether the fixed-shape encoder wrote the
// answer.
func checkHistoryJSON(t *testing.T, series string, from, to, step int64, rows []history.Row) bool {
	t.Helper()
	want := httptest.NewRecorder()
	parentWriteHistory(want, series, from, to, step, rows)
	rm := new(rowMemo)
	for _, pass := range []string{"cold", "memo"} {
		got := httptest.NewRecorder()
		writeHistory(got, rm, series, from, to, step, rows)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: series %q, %d rows:\n answered %d %q\n parent   %d %q",
				pass, series, len(rows), got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
		if !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("%s: series %q: headers %v, parent %v", pass, series, got.Header(), want.Header())
		}
	}
	_, fixed := appendHistoryResponse(nil, new(rowMemo), series, from, to, step, rows)
	return fixed
}

// storeRows answers a step-60 query over n minutes of a store fed values
// spread over six decades, so the rows carry real sketch quantiles.
func storeRows(t *testing.T, n int) []history.Row {
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

// plainRow is a row with an empty sketch: the mean of its sum and count,
// no quantiles.
func plainRow(start, count int64, sum, min, max float64) history.Row {
	r := history.Row{Start: start, Count: count, Sum: sum, Min: min, Max: max}
	if count != 0 {
		r.Mean = sum / float64(count)
	}
	return r
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

	var rows []history.Row
	for i, v := range historyValues {
		for j, w := range historyValues {
			if (i+j)%3 == 0 {
				rows = append(rows, plainRow(int64(i*100+j), int64(1+j%4), v, w, v))
			}
		}
	}
	rows = append(rows, history.Row{Start: -60}) // empty: mean 0
	if !checkHistoryJSON(t, "s", -math.MaxInt64, math.MaxInt64, 1, rows) {
		t.Error("finite rows fell back to WriteResult")
	}

	// A value encoding/json refuses is the parent's 500, whichever member.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, b := range []history.Row{{Count: 1, Sum: bad}, {Count: 1, Min: bad}, {Count: 1, Max: bad}, {Count: 1, Mean: bad}, {Count: 1, P90: bad}} {
			if checkHistoryJSON(t, "s", 0, 120, 60, append(storeRows(t, 2), b)) {
				t.Errorf("%+v: fixed-shape encoder wrote a non-finite value", b)
			}
		}
	}
	w := httptest.NewRecorder()
	writeHistory(w, new(rowMemo), "s", 0, 1, 1, []history.Row{{Count: 1, Sum: math.NaN()}})
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
		var rows []history.Row
		if len(data) > 0 && data[0]%2 == 1 {
			rows = storeRows(t, int(data[0]%16))
		}
		word := func(k int) uint64 { return binary.LittleEndian.Uint64(data[k : k+8]) }
		for ; len(data) >= 40; data = data[40:] {
			rows = append(rows, plainRow(int64(word(0)), int64(word(8)),
				math.Float64frombits(word(16)), math.Float64frombits(word(24)), math.Float64frombits(word(32))))
		}
		checkHistoryJSON(t, series, from, to, step, rows)
	})
}

// TestHistoryRowMemoKeys holds the row memo to its key: rows one float's
// last bit apart, −0 against +0 in each float, and rows one apart in
// start or count alone are answered with their own bytes after their
// neighbour was filed; a finite row is a hit once filed; and a row that is
// not finite is never filed, so every answer holding it is WriteResult's
// 500.
func TestHistoryRowMemoKeys(t *testing.T) {
	base := storeRows(t, 1)[0]
	floats := func(r *history.Row) []*float64 {
		return []*float64{&r.Sum, &r.Min, &r.Max, &r.Mean, &r.P50, &r.P90, &r.P99}
	}
	answer := func(rm *rowMemo, r history.Row) *httptest.ResponseRecorder {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeHistory(got, rm, "s", 0, 120, 60, []history.Row{r})
		parentWriteHistory(want, "s", 0, 120, 60, []history.Row{r})
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("row %+v:\n answered %d %q\n parent   %d %q", r, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
		return got
	}
	hit := func(rm *rowMemo, r history.Row) bool {
		k := newRowKey(&r)
		_, ok := rm.appendRow(nil, &k)
		return ok
	}
	for _, bump := range []func(r *history.Row){
		func(r *history.Row) { r.Start++ },
		func(r *history.Row) { r.Count++ },
	} {
		rm, b := new(rowMemo), base
		bump(&b)
		answer(rm, base)
		if !hit(rm, base) || hit(rm, b) {
			t.Fatalf("%+v then %+v: filed %v, neighbour hit %v", base, b, hit(rm, base), hit(rm, b))
		}
		answer(rm, b)
	}
	for f := range floats(&base) {
		for _, pair := range [][2]float64{
			{*floats(&base)[f], math.Nextafter(*floats(&base)[f], math.Inf(1))}, // the last bit
			{0, math.Copysign(0, -1)},
			{math.Copysign(0, -1), 0},
		} {
			rm := new(rowMemo)
			a, b := base, base
			*floats(&a)[f], *floats(&b)[f] = pair[0], pair[1]
			answer(rm, a)
			if !hit(rm, a) || hit(rm, b) {
				t.Fatalf("float %d, %v then %v: filed %v, neighbour hit %v", f, pair[0], pair[1], hit(rm, a), hit(rm, b))
			}
			answer(rm, b)
			answer(rm, a)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			rm := new(rowMemo)
			r := base
			*floats(&r)[f] = bad
			for range 2 {
				if w := answer(rm, r); w.Code != http.StatusInternalServerError {
					t.Fatalf("float %d = %v answered %d, want 500", f, bad, w.Code)
				}
				if hit(rm, r) {
					t.Fatalf("float %d = %v: a row that is not finite was filed", f, bad)
				}
			}
		}
	}
}

// TestHistoryRowMemoConcurrent answers row sets through one row memo from
// several goroutines at once, as concurrent GET /v1/history handlers do:
// every answer is still the parent's bytes. Run under -race.
func TestHistoryRowMemoConcurrent(t *testing.T) {
	pool := storeRows(t, 40)
	want := make([][]byte, len(pool)-9)
	for i := range want {
		w := httptest.NewRecorder()
		parentWriteHistory(w, "s", 0, 1, 60, pool[i:i+10])
		want[i] = w.Body.Bytes()
	}
	rm := new(rowMemo)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g*7 + k*3) % len(want)
				w := httptest.NewRecorder()
				writeHistory(w, rm, "s", 0, 1, 60, pool[i:i+10])
				if !bytes.Equal(w.Body.Bytes(), want[i]) {
					t.Errorf("goroutine %d, rows %d..%d: answered %q, parent %q", g, i, i+9, w.Body.Bytes(), want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
