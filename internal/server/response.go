package server

import (
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
// observations, decoded strictly and refused or acknowledged whole. Each
// field's domain is stated as the handler enforces it.
//
// A 400 answers a body over MaxBodyBytes, malformed JSON, an unknown
// field, a second JSON value, a number out of float64's range, an
// observedAt that is not an integer, a missing or empty observations
// array, and any observation outside the domain below; its message names
// the observation's index and the field. A 500 answers a batch the
// journal write refused, and then nothing of it is kept, or one whose
// history commit failed after it was journaled and fed, its history
// points staying staged for the next commit. The 200 comes after both
// writes.
//
// Each observation (feedback.Observation):
//   - engine: required, a non-empty string; any engine name is taken.
//   - observedSeconds: required, above 0.
//   - predictedSeconds: optional (absent is 0), at least 0.
//   - predictedDollars, observedDollars: optional, at least 0.
//   - observedAt: optional unix seconds. 0 or absent is stamped with the
//     server's clock; otherwise it lies in [0, now+300] at the server's
//     clock (feedback.MaxClockSkewSeconds). Old times are taken.
//   - operators: optional; each has algo "SMJ" or "BHJ", ssGB and csGB
//     above 0, nc at least 1, observedSeconds above 0 and predictedSeconds
//     at least 0.
//
// Read but not checked: signature (any string, journaled as sent), the
// engine name beyond being non-empty, the dollar amounts beyond their
// sign (nothing downstream reads them), and the size of every value
// within its bound (an nc of 1.5 or an ssGB of 1e300 is taken).
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

// appendModelResponse appends WriteResult's bytes for r: nil slices are
// null, as encoding/json writes them.
func appendModelResponse(dst []byte, r ModelResponse) ([]byte, bool) {
	o := openObject(dst, "  ")
	o.key("version")
	o.dst = strconv.AppendUint(o.dst, r.Version, 10)
	o.key("models")
	if r.Models == nil {
		o.dst = append(o.dst, "null"...)
	} else {
		o.dst = append(o.dst, '[')
		for i, m := range r.Models {
			if i > 0 {
				o.dst = append(o.dst, ',')
			}
			o.ok = o.ok && canonjson.PlainString(m)
			o.dst = append(o.dst, "\n    \""...)
			o.dst = append(o.dst, m...)
			o.dst = append(o.dst, '"')
		}
		o.closeArray(len(r.Models))
	}
	o.intMember("trainedOn", int64(r.TrainedOn))
	o.intMember("recalibrations", r.Recalibrations)
	o.floatMember("lastRecalSeconds", r.LastRecalSecs)
	o.boolMember("drifted", r.Drifted)
	o.floatMember("driftThreshold", r.DriftThreshold)
	o.floatMember("driftQuantile", r.DriftQuantile)
	if o.arrayMember("errorStats", r.ErrorStats == nil) {
		for i, c := range r.ErrorStats {
			e := o.element(i)
			e.stringMember("engine", c.Engine)
			e.stringMember("class", c.Class)
			e.intMember("samples", int64(c.Samples))
			e.floatMember("quantileError", c.QuantileError)
			e.boolMember("drifted", c.Drifted)
			o.endElement(&e)
		}
		o.closeArray(len(r.ErrorStats))
	}
	o.intMember("storedFeedback", int64(r.StoredFeedback))
	o.intMember("totalFeedback", r.TotalFeedback)
	return o.end()
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON is the one encoder both the HTTP handlers and the CLI -json
// flags use: a json.Encoder with SetIndent("", "  ") and HTML escaping
// off, so plan trees and query names render verbatim, and its trailing
// newline. Encoding finishes before the one Write: a value that does not
// encode (a NaN, say) returns the encoder's error and writes nothing.
func WriteJSON(w io.Writer, v any) error {
	b, err := encodeJSON(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b.out)
	b.release()
	return err
}

// jsonBuffer is one encoding's scratch: out, and an encoder that appends
// to it. The fixed-shape encoders append to out directly.
type jsonBuffer struct {
	out []byte
	enc *json.Encoder
}

// Write appends p to out; the encoder writes each value with one call.
func (b *jsonBuffer) Write(p []byte) (int, error) {
	b.out = append(b.out, p...)
	return len(p), nil
}

var jsonBuffers = sync.Pool{New: func() any {
	b := new(jsonBuffer)
	b.enc = json.NewEncoder(b)
	b.enc.SetEscapeHTML(false)
	b.enc.SetIndent("", "  ")
	return b
}}

// maxPooledJSON bounds the buffers kept for reuse, so one large answer (a
// big batch or explain) does not stay resident in the pool.
const maxPooledJSON = 64 << 10

// encodeJSON encodes v into a pooled buffer's out. The caller releases the
// buffer once out has been written.
func encodeJSON(v any) (*jsonBuffer, error) {
	b := jsonBuffers.Get().(*jsonBuffer)
	if err := b.enc.Encode(v); err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

func (b *jsonBuffer) release() {
	if cap(b.out) > maxPooledJSON {
		return
	}
	b.out = b.out[:0]
	jsonBuffers.Put(b)
}

// The fixed-shape encoders write WriteResult's bytes for one response type
// member by member, with no reflection: the feedback acknowledgement, the
// two submit outcomes, the model snapshot and the history range
// (history.go). A value they cannot write as it stands — a string
// json.Marshal would escape, a float it refuses — goes through WriteResult
// itself, so a NaN is still its 500. TestFixedEncodersMatchWriteResult and
// TestModelJSONMatchesWriteResult hold them to WriteResult.

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

// arrayMember opens array member k and reports true, or writes null —
// encoding/json's nil slice — and reports false when isNil.
func (o *object) arrayMember(k string, isNil bool) bool {
	o.key(k)
	if isNil {
		o.dst = append(o.dst, "null"...)
		return false
	}
	o.dst = append(o.dst, '[')
	return true
}

// element opens element i of an array member of objects; endElement
// closes it into o.
func (o *object) element(i int) object {
	if i > 0 {
		o.dst = append(o.dst, ',')
	}
	return openObject(append(o.dst, "\n    "...), "      ")
}

func (o *object) endElement(e *object) {
	o.dst, o.ok = e.close(), o.ok && e.ok
}

// closeArray closes an array member of n elements, each appended on a
// line of its own two spaces deeper than the member.
func (o *object) closeArray(n int) {
	if n > 0 {
		o.dst = append(o.dst, '\n')
		o.dst = append(o.dst, o.indent...)
	}
	o.dst = append(o.dst, ']')
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
