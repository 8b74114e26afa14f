package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"raqo/internal/feedback"
)

// FuzzHistoryQuery sends GET /v1/history with arbitrary series, from, to
// and step parameters, each present or absent as present's low four bits
// say, to a store holding three committed feedback batches. No input
// panics the handler, every answer is a 200, 400 or 404, a 200 to a series
// query is a HistoryResponse whose bucket starts strictly increase, and no
// GET changes the store's committed points or high-water mark.
func FuzzHistoryQuery(f *testing.F) {
	const series = "feedback.relerr.hive.query"
	const minInt64, maxInt64, over = "-9223372036854775808", "9223372036854775807", "9223372036854775808"
	for _, to := range []string{maxInt64, over} {
		for _, step := range []string{"1", "60", "3600", "3601", maxInt64} {
			f.Add(uint8(15), series, minInt64, to, step)
		}
	}
	f.Add(uint8(0), "", "", "", "")
	f.Add(uint8(15), series, "1699999980", "1700000160", "60")
	f.Add(uint8(1), "no.such.series", "", "", "")
	f.Add(uint8(9), series, "", "", "x")
	f.Add(uint8(7), "feedback.relerr.hive.SMJ", "1700000160", "1699999980", "")

	s, err := New(Config{HistoryDir: f.TempDir(), RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close() })
	h := s.Handler()
	for i := 0; i < 3; i++ {
		obs := validObservation(i)
		obs.ObservedAt = histBase + int64(60*i)
		body, err := json.Marshal(FeedbackRequest{Observations: []feedback.Observation{obs}})
		if err != nil {
			f.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			f.Fatalf("feedback batch %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	listing := func(t testing.TB) HistorySeriesResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/history", nil))
		var list HistorySeriesResponse
		if rec.Code != http.StatusOK {
			t.Fatalf("listing: HTTP %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
			t.Fatalf("listing: %v", err)
		}
		return list
	}
	before := listing(f)
	if before.Points == 0 {
		f.Fatalf("no committed points: %+v", before)
	}

	f.Fuzz(func(t *testing.T, present uint8, series, from, to, step string) {
		qp := url.Values{}
		for i, kv := range [][2]string{{"series", series}, {"from", from}, {"to", to}, {"step", step}} {
			if present&(1<<i) != 0 {
				qp.Set(kv[0], kv[1])
			}
		}
		target := "/v1/history?" + qp.Encode()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%s: HTTP %d: %s", target, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK && qp.Get("series") != "" {
			var hr HistoryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
				t.Fatalf("%s: 200 that is not a HistoryResponse: %v: %s", target, err, rec.Body)
			}
			for i := 1; i < len(hr.Buckets); i++ {
				if hr.Buckets[i].Start <= hr.Buckets[i-1].Start {
					t.Fatalf("%s: bucket %d starts at %d after %d", target, i, hr.Buckets[i].Start, hr.Buckets[i-1].Start)
				}
			}
		}
		if after := listing(t); after.Points != before.Points || after.HighWater != before.HighWater {
			t.Fatalf("%s moved the store: points %d→%d, high water %d→%d",
				target, before.Points, after.Points, before.HighWater, after.HighWater)
		}
	})
}
