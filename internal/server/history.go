package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"raqo/internal/history"
)

// HistoryBucket is one aggregate row of GET /v1/history: a step-aligned
// window of one series with count/sum/min/max/mean and sketch quantiles.
type HistoryBucket struct {
	Start int64   `json:"start"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// HistoryResponse is the body of GET /v1/history?series=...: the rows of
// series over [from, to) at step resolution. The query parameters'
// domains, as handleHistory enforces them:
//   - series: a name the store has recorded, else a 404. Absent or empty
//     lists the series instead (HistorySeriesResponse).
//   - from, to: optional decimal int64 unix seconds, defaulting to the
//     last hour (from = now-3600, to = now+1 at the server's clock). One
//     that does not parse as an int64 (a fraction, an overflow) is a 400,
//     as is to <= from.
//   - step: optional decimal int64 seconds, default 60; not positive is a
//     400. Under 60 the raw points answer, bucketed exactly at step over
//     [from, to). From 60 the 1m rollups answer and from 3600 the 1h ones,
//     step rounded up to a multiple of 60 or 3600; those reads cannot
//     split a source bucket, so [from, to) widens outward to the source
//     grid and a partly covered minute or hour counts whole. A step that
//     rounds up past MaxInt64, or a from whose step-aligned bucket starts
//     below MinInt64, is a 400.
//
// Any other error of the store's, such as a raw segment that fails to
// read, is a 500. From, To and Step echo the request (the
// defaults filled in, step as sent, not rounded); bucket starts lie on
// the rounded step's grid, and an empty window has no bucket.
type HistoryResponse struct {
	Series  string          `json:"series"`
	From    int64           `json:"from"`
	To      int64           `json:"to"`
	Step    int64           `json:"step"`
	Buckets []HistoryBucket `json:"buckets"`
}

// HistorySeriesResponse is the body of GET /v1/history without a series
// parameter: every recorded series name plus the store's committed shape.
type HistorySeriesResponse struct {
	Series    []string `json:"series"`
	Points    int64    `json:"points"`
	HighWater int64    `json:"highWater"`
}

// historyInt parses one integer query parameter, empty selecting def.
func historyInt(q string, def int64) (int64, error) {
	if q == "" {
		return def, nil
	}
	return strconv.ParseInt(q, 10, 64)
}

// handleHistory serves range queries over the embedded history store: a
// 404 when the server has none (no -history-dir). Without ?series= it
// lists the recorded series; with one it returns the rows of [from, to)
// at step resolution, the parameters' domains, defaults and statuses
// being HistoryResponse's. Rollup-backed reads follow the store's outward
// alignment: a partially covered source bucket is included whole.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.hist == nil {
		WriteError(w, http.StatusNotFound, errors.New("history store not configured (start with -history-dir)"))
		return
	}
	qp := r.URL.Query()
	series := qp.Get("series")
	if series == "" {
		hs := s.hist.Stats()
		WriteResult(w, HistorySeriesResponse{
			Series:    s.hist.SeriesNames(),
			Points:    hs.CommittedTotal,
			HighWater: hs.HighWater,
		})
		return
	}
	now := time.Now().Unix()
	from, err := historyInt(qp.Get("from"), now-3600)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
		return
	}
	to, err := historyInt(qp.Get("to"), now+1)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad to: %w", err))
		return
	}
	step, err := historyInt(qp.Get("step"), 60)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad step: %w", err))
		return
	}
	rows, err := s.hist.Query(series, from, to, step)
	if err != nil {
		code := http.StatusInternalServerError // the store failed to read
		switch {
		case errors.Is(err, history.ErrBadQuery):
			code = http.StatusBadRequest
		case errors.Is(err, history.ErrUnknownSeries):
			code = http.StatusNotFound
		}
		WriteError(w, code, err)
		return
	}
	writeHistory(w, series, from, to, step, rows)
}

// newHistoryResponse is the wire form of a range query's rows.
func newHistoryResponse(series string, from, to, step int64, rows []history.Row) HistoryResponse {
	resp := HistoryResponse{
		Series:  series,
		From:    from,
		To:      to,
		Step:    step,
		Buckets: make([]HistoryBucket, len(rows)),
	}
	for i, r := range rows {
		resp.Buckets[i] = HistoryBucket(r)
	}
	return resp
}

// writeHistory answers a range query with WriteResult's bytes for
// newHistoryResponse(...), written straight from the rows. A series name
// that would need escaping, or a value that does not encode, goes through
// WriteResult itself, which answers the latter with its 500.
func writeHistory(w http.ResponseWriter, series string, from, to, step int64, rows []history.Row) {
	b := jsonBuffers.Get().(*jsonBuffer)
	out, ok := appendHistoryResponse(b.out[:0], series, from, to, step, rows)
	b.out = out
	if ok {
		writeEncoded(w, out)
	} else {
		WriteResult(w, newHistoryResponse(series, from, to, step, rows))
	}
	b.release()
}

// appendHistoryResponse appends the indented JSON of
// newHistoryResponse(...) to dst; ok is false, and what it appended not
// that JSON, when the series name needs escaping or a value is not finite.
func appendHistoryResponse(dst []byte, series string, from, to, step int64, rows []history.Row) (_ []byte, ok bool) {
	o := openObject(dst, "  ")
	o.stringMember("series", series)
	o.intMember("from", from)
	o.intMember("to", to)
	o.intMember("step", step)
	o.arrayMember("buckets", false)
	for i := range rows {
		b := &rows[i]
		row := o.element(i)
		row.intMember("start", b.Start)
		row.intMember("count", b.Count)
		row.floatMember("sum", b.Sum)
		row.floatMember("min", b.Min)
		row.floatMember("max", b.Max)
		row.floatMember("mean", b.Mean)
		row.floatMember("p50", b.P50)
		row.floatMember("p90", b.P90)
		row.floatMember("p99", b.P99)
		o.endElement(&row)
	}
	o.closeArray(len(rows))
	return o.end()
}

// gatherHistory samples every telemetry series into the history store at
// one wall-clock instant and commits the batch — one durable block per
// gather tick. Serve runs it on the HistoryInterval ticker; tests call it
// directly with a fixed timestamp. Failures are counted in
// raqo_history_gather_errors_total so a persistently failing gather is
// visible instead of silently dropping history forever.
func (s *Server) gatherHistory(now int64) error {
	if s.hist == nil {
		return nil
	}
	s.metrics.Registry.Visit(func(name string, value float64) {
		s.hist.Record(historySeriesName(name), now, value)
	})
	err := s.hist.Commit()
	if err != nil && s.metrics.GatherErrors != nil {
		s.metrics.GatherErrors.Inc()
	}
	return err
}

// historySeriesName maps a telemetry series name onto one the history
// store accepts: labels (tenant names, endpoints) may carry spaces, which
// history.Series rejects — and a single bad name would stick as a
// registration error and fail every later gather commit.
func historySeriesName(name string) string {
	if !strings.ContainsAny(name, " \n") {
		return name
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' {
			return '_'
		}
		return r
	}, name)
}
