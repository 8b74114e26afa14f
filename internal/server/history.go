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

// HistoryResponse is the body of GET /v1/history?series=....
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

// handleHistory serves range queries over the embedded history store.
// Without ?series= it lists the recorded series; with one it returns the
// downsampled buckets of [from, to) at step resolution (defaults: the
// last hour at 60s). Rollup-backed reads follow the store's outward
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
		code := http.StatusBadRequest
		if errors.Is(err, history.ErrUnknownSeries) {
			code = http.StatusNotFound
		}
		WriteError(w, code, err)
		return
	}
	writeHistory(w, series, from, to, step, rows)
}

// newHistoryResponse is the wire form of a range query's rows.
func newHistoryResponse(series string, from, to, step int64, rows []history.Bucket) HistoryResponse {
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
	return resp
}

// writeHistory answers a range query with WriteResult's bytes for
// newHistoryResponse(...), written straight from the rows. A series name
// that would need escaping, or a value that does not encode, goes through
// WriteResult itself, which answers the latter with its 500.
func writeHistory(w http.ResponseWriter, series string, from, to, step int64, rows []history.Bucket) {
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
func appendHistoryResponse(dst []byte, series string, from, to, step int64, rows []history.Bucket) (_ []byte, ok bool) {
	o := openObject(dst, "  ")
	o.stringMember("series", series)
	o.intMember("from", from)
	o.intMember("to", to)
	o.intMember("step", step)
	o.key("buckets")
	o.dst = append(o.dst, '[')
	for i := range rows {
		b := &rows[i]
		q := b.Quantiles(0.5, 0.9, 0.99)
		if i > 0 {
			o.dst = append(o.dst, ',')
		}
		row := openObject(append(o.dst, "\n    "...), "      ")
		row.intMember("start", b.Start)
		row.intMember("count", b.Count)
		row.floatMember("sum", b.Sum)
		row.floatMember("min", b.Min)
		row.floatMember("max", b.Max)
		row.floatMember("mean", b.Mean())
		row.floatMember("p50", q[0])
		row.floatMember("p90", q[1])
		row.floatMember("p99", q[2])
		o.dst, o.ok = row.close(), o.ok && row.ok
	}
	if len(rows) > 0 {
		o.dst = append(o.dst, "\n  "...)
	}
	o.dst = append(o.dst, ']')
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
