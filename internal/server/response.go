package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"raqo/internal/core"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/units"
)

// This file defines the service's wire types. They are shared with
// cmd/raqo's -json output so the CLI and the API emit byte-identical
// machine-readable results through the one encoder below.

// OptimizeRequest is the body of POST /v1/optimize. Exactly one of Query
// (a TPC-H evaluation query name: Q12, Q3, Q2, All) or Relations (an
// explicit relation list validated against the schema's join graph) names
// the logical query.
type OptimizeRequest struct {
	Query     string   `json:"query,omitempty"`
	Relations []string `json:"relations,omitempty"`
	// Mode is one of the Section IV use-case modes: "joint" (default),
	// "fixed", "budget" or "price".
	Mode string `json:"mode,omitempty"`
	// Containers/ContainerGB are the fixed configuration (fixed mode) or
	// the tenant quota (budget mode).
	Containers  int     `json:"containers,omitempty"`
	ContainerGB float64 `json:"containerGB,omitempty"`
	// BudgetDollars is the price mode's monetary budget.
	BudgetDollars units.USD `json:"budgetDollars,omitempty"`
}

// OptimizeResponse is one joint query/resource decision on the wire. Plan
// uses plan.Node's JSON form, so it round-trips through plan.Decode
// against the same schema.
type OptimizeResponse struct {
	Query              string     `json:"query"`
	Mode               string     `json:"mode"`
	Planner            string     `json:"planner"`
	TimeSeconds        float64    `json:"timeSeconds"`
	MoneyDollars       units.USD  `json:"moneyDollars"`
	PlansConsidered    int        `json:"plansConsidered"`
	ResourceIterations int64      `json:"resourceIterations"`
	ElapsedMicros      int64      `json:"elapsedMicros"`
	Plan               *plan.Node `json:"plan"`
}

// NewOptimizeResponse converts a core Decision into its wire form.
func NewOptimizeResponse(query, mode string, planner core.PlannerKind, d *core.Decision) OptimizeResponse {
	return OptimizeResponse{
		Query:              query,
		Mode:               mode,
		Planner:            planner.String(),
		TimeSeconds:        d.Time,
		MoneyDollars:       d.Money,
		PlansConsidered:    d.PlansConsidered,
		ResourceIterations: d.ResourceIterations,
		ElapsedMicros:      d.Elapsed.Microseconds(),
		Plan:               d.Plan,
	}
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Queries []string `json:"queries"`
	// Parallel bounds inter-query concurrency; 0 selects NumCPU.
	Parallel int `json:"parallel,omitempty"`
}

// CacheStats is the resource-plan cache snapshot on the wire.
type CacheStats struct {
	Hits       int64  `json:"hits"`
	Misses     int64  `json:"misses"`
	Deduped    int64  `json:"deduped"`
	Evictions  int64  `json:"evictions"`
	Entries    int    `json:"entries"`
	Generation uint64 `json:"generation"`
}

// NewCacheStats converts a resource.Stats snapshot.
func NewCacheStats(s resource.Stats) CacheStats {
	return CacheStats{
		Hits:       s.Hits,
		Misses:     s.Misses,
		Deduped:    s.Deduped,
		Evictions:  s.Evictions,
		Entries:    s.Entries,
		Generation: s.Generation,
	}
}

// MemoStats is the operator-cost memo snapshot on the wire.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// BatchResponse is the body of a successful POST /v1/batch: per-query
// decisions in request order plus the planning-cache state after the
// batch (the cross-query warm-cache effect of Figures 14/15b).
type BatchResponse struct {
	Results []OptimizeResponse `json:"results"`
	Cache   *CacheStats        `json:"cache,omitempty"`
	Memo    *MemoStats         `json:"memo,omitempty"`
}

// ExplainOperator is one operator of the /v1/explain cost breakdown.
type ExplainOperator struct {
	Algo           string    `json:"algo"`
	Relations      []string  `json:"relations"`
	Containers     int       `json:"containers"`
	ContainerGB    float64   `json:"containerGB"`
	BuildSideGB    float64   `json:"buildSideGB"`
	ModeledSeconds float64   `json:"modeledSeconds"`
	ModeledDollars units.USD `json:"modeledDollars"`
	// AltAlgo/AltSeconds price the other implementation at the same
	// resources, when a model for it exists.
	AltAlgo    string  `json:"altAlgo,omitempty"`
	AltSeconds float64 `json:"altSeconds,omitempty"`
}

// ExplainResponse is the body of GET /v1/explain/{query}: the decision,
// its per-operator cost breakdown, and the rendered plan tree.
type ExplainResponse struct {
	OptimizeResponse
	Operators []ExplainOperator `json:"operators"`
	PlanTree  string            `json:"planTree"`
}

// NewExplainOperators converts core's structured explanation.
func NewExplainOperators(ops []core.OperatorExplain) []ExplainOperator {
	out := make([]ExplainOperator, 0, len(ops))
	for _, op := range ops {
		e := ExplainOperator{
			Algo:           op.Algo.String(),
			Relations:      op.Relations,
			Containers:     op.Res.Containers,
			ContainerGB:    op.Res.ContainerGB,
			BuildSideGB:    op.BuildSideGB,
			ModeledSeconds: op.Seconds,
			ModeledDollars: op.Money,
		}
		if op.AltOK {
			e.AltAlgo = op.AltAlgo.String()
			e.AltSeconds = op.AltSeconds
		}
		out = append(out, e)
	}
	return out
}

// FeedbackRequest is the body of POST /v1/feedback: a batch of execution
// observations. The batch is validated as a whole before any observation
// is stored.
type FeedbackRequest struct {
	Observations []feedback.Observation `json:"observations"`
}

// FeedbackResponse acknowledges accepted feedback and reports the store
// and drift state after ingestion.
type FeedbackResponse struct {
	Accepted int   `json:"accepted"` // observations in this request
	Stored   int   `json:"stored"`   // observations currently in the ring
	Total    int64 `json:"total"`    // observations ever accepted
	Drifted  bool  `json:"drifted"`  // drift detector state after ingestion
}

// writeFeedbackResponse sends WriteResult's bytes for r, written field by
// field: four members of fixed shape, none of which can fail to encode.
func writeFeedbackResponse(w http.ResponseWriter, r FeedbackResponse) {
	b := jsonBuffers.Get().(*jsonBuffer)
	b.out = appendFeedbackResponse(b.out[:0], r)
	writeEncoded(w, b.out)
	b.release()
}

func appendFeedbackResponse(dst []byte, r FeedbackResponse) []byte {
	dst = append(dst, "{\n  \"accepted\": "...)
	dst = strconv.AppendInt(dst, int64(r.Accepted), 10)
	dst = append(dst, ",\n  \"stored\": "...)
	dst = strconv.AppendInt(dst, int64(r.Stored), 10)
	dst = append(dst, ",\n  \"total\": "...)
	dst = strconv.AppendInt(dst, r.Total, 10)
	dst = append(dst, ",\n  \"drifted\": "...)
	dst = strconv.AppendBool(dst, r.Drifted)
	return append(dst, "\n}\n"...)
}

// ModelResponse is the body of GET /v1/model: the live cost-model version
// and the drift detector's per-class error stats.
type ModelResponse struct {
	Version         uint64                `json:"version"`
	Models          []string              `json:"models"`    // sorted model names
	TrainedOn       int                   `json:"trainedOn"` // samples behind this version (0 = seed)
	Recalibrations  int64                 `json:"recalibrations"`
	LastRecalSecs   float64               `json:"lastRecalSeconds"`
	Drifted         bool                  `json:"drifted"`
	DriftThreshold  float64               `json:"driftThreshold"`
	DriftQuantile   float64               `json:"driftQuantile"`
	ErrorStats      []feedback.ClassStats `json:"errorStats"`
	StoredFeedback  int                   `json:"storedFeedback"`
	TotalFeedback   int64                 `json:"totalFeedback"`
	CacheGeneration uint64                `json:"cacheGeneration"`
}

// NewModelResponse snapshots a recalibrator for the wire.
func NewModelResponse(rec *feedback.Recalibrator) ModelResponse {
	info := rec.Current()
	cfg := rec.Detector().Config()
	resp := ModelResponse{
		Version:        info.Version,
		Models:         info.ModelNames(),
		TrainedOn:      info.TrainedOn,
		Recalibrations: rec.Recalibrations(),
		LastRecalSecs:  rec.LastDurationSeconds(),
		Drifted:        rec.Detector().Drifted(),
		DriftThreshold: cfg.Threshold,
		DriftQuantile:  cfg.Quantile,
		ErrorStats:     rec.Detector().Stats(),
		StoredFeedback: rec.Store().Len(),
		TotalFeedback:  rec.Store().Total(),
	}
	if rec.Cache != nil {
		resp.CacheGeneration = rec.Cache.Stats().Generation
	}
	return resp
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON is the one encoder both the HTTP handlers and the CLI -json
// flags use: two-space indented, trailing newline, HTML escaping off so
// plan trees and query names render verbatim. The bytes are those of a
// json.Encoder with SetIndent("", "  "). Encoding finishes before the one
// Write: a value that does not encode (a NaN, say) returns the encoder's
// error and writes nothing.
func WriteJSON(w io.Writer, v any) error {
	b, err := encodeJSON(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b.out)
	b.release()
	return err
}

// jsonBuffer is one encoding's scratch: an encoder writing compact JSON
// into compact, and out for its indented form.
type jsonBuffer struct {
	compact bytes.Buffer
	enc     *json.Encoder
	out     []byte
}

var jsonBuffers = sync.Pool{New: func() any {
	b := new(jsonBuffer)
	b.enc = json.NewEncoder(&b.compact)
	b.enc.SetEscapeHTML(false)
	return b
}}

// maxPooledJSON bounds the buffers kept for reuse, so one large answer (a
// big batch or explain) does not stay resident in the pool.
const maxPooledJSON = 64 << 10

// encodeJSON encodes v into a pooled buffer, indented in out. The caller
// releases the buffer once out has been written.
func encodeJSON(v any) (*jsonBuffer, error) {
	b := jsonBuffers.Get().(*jsonBuffer)
	if err := b.enc.Encode(v); err != nil {
		b.release()
		return nil, err
	}
	b.out = appendIndent(b.out, b.compact.Bytes())
	return b, nil
}

func (b *jsonBuffer) release() {
	if b.compact.Cap() > maxPooledJSON || cap(b.out) > maxPooledJSON {
		return
	}
	b.compact.Reset()
	b.out = b.out[:0]
	jsonBuffers.Put(b)
}

// appendIndent appends src, compact JSON as json.Encoder writes it, to
// dst with json.Indent's layout at prefix "" and indent "  ": a newline
// and the new depth's indent after '{', '[' and ',' and before a closing
// bracket, ": " after a key, "{}" and "[]" kept whole, everything else —
// string bodies and the trailing newline included — copied as is. Unlike
// json.Indent it runs no validating scanner: src is the output of an
// encoder, so it is valid, and its only whitespace is that newline.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	opened := false // the last byte was '{' or '['; its newline waits
	for i := 0; i < len(src); i++ {
		c := src[i]
		if opened && c != '}' && c != ']' {
			opened = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			opened = true
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			if opened {
				opened = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
