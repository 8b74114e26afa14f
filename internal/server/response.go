package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"raqo/internal/canonjson"
	"raqo/internal/core"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// This file defines the service's wire types. They are shared with
// cmd/raqo's -json output so the CLI and the API emit byte-identical
// machine-readable results through the one encoder below.

// OptimizeRequest is the body of POST /v1/optimize, decoded strictly: an
// unknown field, a second JSON value or a malformed one is a 400. Each
// field's domain is stated as the handler enforces it; a field the mode
// does not read is ignored whatever its value, and a value outside the
// domain its mode reads is a 422 from the planner unless stated otherwise.
type OptimizeRequest struct {
	// Query and Relations name the logical query; exactly one must be set
	// (both, or neither, is a 400; an empty Relations counts as unset).
	// Query is a TPC-H evaluation query name, case-sensitive: Q12, Q3, Q2
	// or All; any other is a 400.
	Query string `json:"query,omitempty"`
	// Relations is an explicit relation list in any order: one or more
	// distinct TPC-H tables, connected in the schema's join graph; an
	// unknown, repeated or disconnected relation is a 400.
	Relations []string `json:"relations,omitempty"`
	// Mode is one of the Section IV use-case modes: "joint" (the default
	// when empty), "fixed", "budget" or "price"; any other is a 400.
	Mode string `json:"mode,omitempty"`
	// Containers and ContainerGB are read by fixed and budget mode only.
	// In fixed mode they are the one configuration to plan under and must
	// be a point of the served cluster's grid: 1 to 100 containers of a
	// whole 1 to 10 GB (omitted fields are 0, so outside). In budget mode
	// they are a tenant quota capping that grid: the planner searches the
	// grid points at or below both caps, a cap above the box (more than 100
	// containers or 10 GB) leaves that side of the box whole, and a cap
	// below its smallest point (under 1 container or 1 GB, omitted
	// included) leaves nothing to search.
	Containers  int     `json:"containers,omitempty"`
	ContainerGB float64 `json:"containerGB,omitempty"`
	// BudgetDollars is read by price mode only: the most the answer's
	// modeled money cost may be. It must be positive, and a budget below
	// every plan the randomized search finds is a 422 naming the cheapest.
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

// NewOptimizeResponse converts a core Decision into its wire form. Price
// mode always runs the randomized planner, so its answer names that one.
func NewOptimizeResponse(query, mode string, planner core.PlannerKind, d *core.Decision) OptimizeResponse {
	if mode == "price" {
		planner = core.FastRandomized
	}
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

const maxBatchQueries = 64 // bounds the work one admission slot plans

// BatchRequest is the body of POST /v1/batch. Queries holds 1 to 64 names
// (maxBatchQueries), each resolved as OptimizeRequest.Query is; the server
// plans them jointly, one after another in request order, inside one
// admission slot. An empty list or a longer one is a 400.
type BatchRequest struct {
	Queries []string `json:"queries"`
}

// MemoStats is the operator-cost memo snapshot on the wire.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// BatchResponse is the body of a successful POST /v1/batch: per-query
// decisions in request order plus the cost memo's state after the batch.
type BatchResponse struct {
	Results []OptimizeResponse `json:"results"`
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

func appendFeedbackResponse(dst []byte, r FeedbackResponse) ([]byte, bool) {
	o := openObject(dst, "  ")
	o.intMember("accepted", int64(r.Accepted))
	o.intMember("stored", int64(r.Stored))
	o.intMember("total", r.Total)
	o.boolMember("drifted", r.Drifted)
	return o.end()
}

// ModelResponse is the body of GET /v1/model: the live cost-model version
// and the drift detector's per-class error stats.
type ModelResponse struct {
	Version        uint64                `json:"version"`
	Models         []string              `json:"models"`    // sorted model names
	TrainedOn      int                   `json:"trainedOn"` // samples behind this version (0 = seed)
	Recalibrations int64                 `json:"recalibrations"`
	LastRecalSecs  float64               `json:"lastRecalSeconds"`
	Drifted        bool                  `json:"drifted"`
	DriftThreshold float64               `json:"driftThreshold"`
	DriftQuantile  float64               `json:"driftQuantile"`
	ErrorStats     []feedback.ClassStats `json:"errorStats"`
	StoredFeedback int                   `json:"storedFeedback"`
	TotalFeedback  int64                 `json:"totalFeedback"`
}

// NewModelResponse snapshots a recalibrator for the wire.
func NewModelResponse(rec *feedback.Recalibrator) ModelResponse {
	info := rec.Current()
	cfg := rec.Detector().Config()
	return ModelResponse{
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

// The fixed-shape encoders write WriteResult's bytes for one response type
// member by member, with no reflection: the feedback acknowledgement, the
// two submit outcomes and the history range (history.go). A value they
// cannot write as it stands — a string json.Marshal would escape, a float
// it refuses — goes through WriteResult itself, so a NaN is still its 500.
// TestFixedEncodersMatchWriteResult holds each to WriteResult.

// writeFixed answers v with appendV's bytes, or through WriteResult when
// appendV cannot write v.
func writeFixed[T any](w http.ResponseWriter, v T, appendV func([]byte, T) ([]byte, bool)) {
	b := jsonBuffers.Get().(*jsonBuffer)
	out, ok := appendV(b.out[:0], v)
	b.out = out
	if ok {
		writeEncoded(w, out)
	} else {
		WriteResult(w, v)
	}
	b.release()
}

// object appends one JSON object in WriteJSON's layout: "{", each member
// on a line of its own at indent as `"key": value`, commas between them,
// and "}" on a line two spaces shallower than indent ("{}" when empty).
// ok turns false at a string that needs escaping or a non-finite float;
// what was appended is then not the encoding.
type object struct {
	dst    []byte
	indent string // the members' indentation
	n      int    // members appended
	ok     bool
}

func openObject(dst []byte, indent string) object {
	return object{dst: append(dst, '{'), indent: indent, ok: true}
}

// key appends a member's lead: the separator, the line break, the indent
// and the key. Keys are the response types' own names: plain, unescaped.
func (o *object) key(k string) {
	if o.n > 0 {
		o.dst = append(o.dst, ',')
	}
	o.n++
	o.dst = append(o.dst, '\n')
	o.dst = append(o.dst, o.indent...)
	o.dst = append(o.dst, '"')
	o.dst = append(o.dst, k...)
	o.dst = append(o.dst, '"', ':', ' ')
}

func (o *object) intMember(k string, v int64) {
	o.key(k)
	o.dst = strconv.AppendInt(o.dst, v, 10)
}

func (o *object) boolMember(k string, v bool) {
	o.key(k)
	o.dst = strconv.AppendBool(o.dst, v)
}

func (o *object) floatMember(k string, v float64) {
	o.ok = o.ok && canonjson.Finite(v)
	o.key(k)
	o.dst = canonjson.AppendFloat(o.dst, v)
}

func (o *object) stringMember(k, v string) {
	o.ok = o.ok && canonjson.PlainString(v)
	o.key(k)
	o.dst = append(o.dst, '"')
	o.dst = append(o.dst, v...)
	o.dst = append(o.dst, '"')
}

// close appends the closing brace.
func (o *object) close() []byte {
	if o.n > 0 {
		o.dst = append(o.dst, '\n')
		o.dst = append(o.dst, o.indent[2:]...)
	}
	return append(o.dst, '}')
}

// end closes a top-level object and appends the encoder's newline.
func (o *object) end() ([]byte, bool) {
	return append(o.close(), '\n'), o.ok
}
