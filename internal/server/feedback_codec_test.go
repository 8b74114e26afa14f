package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"raqo/internal/cost"
	"raqo/internal/feedback"
	"raqo/internal/telemetry"
)

// parentHandleFeedback is handleFeedback as it stood before the feedback
// codec: encoding/json on the request stream, one Feed per observation,
// each journal line re-encoded by json.Marshal. It is the reference the
// handler's status, body and journal are held to, with one rule added
// since: observedAt's wire domain, checked before anything else about the
// observations.
func parentHandleFeedback(s *Server, w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if err := decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Observations) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("missing observations"))
		return
	}
	now := time.Now().Unix()
	for i := range req.Observations {
		at := req.Observations[i].ObservedAt
		if at == 0 {
			at = now
		}
		if err := feedback.CheckObservedAt(at, now); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("observation %d: %w", i, err))
			return
		}
	}
	for i := range req.Observations {
		if err := req.Observations[i].Validate(); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("observation %d: %w", i, err))
			return
		}
	}
	for i := range req.Observations {
		o := req.Observations[i]
		if o.ObservedAt == 0 {
			o.ObservedAt = now
		}
		if err := s.rec.Feed(o); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
	}
	WriteResult(w, FeedbackResponse{
		Accepted: len(req.Observations),
		Stored:   s.rec.Store().Len(),
		Total:    s.rec.Store().Total(),
		Drifted:  s.rec.Detector().Drifted(),
	})
}

// feedbackJournals are the journals the feedback handler checks keep from
// one body to the next, opened once: the handler's and the parent's. A
// body's servers get their role's journal emptied, and a new ring,
// detector, recorder and metrics, so no body sees what another left.
type feedbackJournals [2]*feedback.Journal

func newFeedbackJournals(t testing.TB) *feedbackJournals {
	t.Helper()
	dir, js := t.TempDir(), &feedbackJournals{}
	for i := range js {
		j, err := feedback.OpenJournalConfig(filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", i)), feedback.JournalConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		js[i] = j
	}
	return js
}

// latestRecorder is the detector's recorder in the feedback handler
// checks: it keeps the latest timestamp among the points recorded (0 for
// none), which is where a history store's high-water mark would stand.
type latestRecorder struct{ latest int64 }

func (r *latestRecorder) Record(_ string, ts int64, _ float64) { r.latest = max(r.latest, ts) }

// server is the part of a Server the feedback handlers touch: a
// recalibrator over a small ring with role's journal (0 the handler's, 1
// the parent's) and a new recorder behind its detector. The journal never
// rotates and its log appends in O_APPEND mode, so the file cut to nothing
// is an empty journal.
func (js *feedbackJournals) server(t *testing.T, role int) (*Server, *latestRecorder) {
	t.Helper()
	j := js[role]
	if err := os.Truncate(j.Path(), 0); err != nil {
		t.Fatal(err)
	}
	rec := feedback.NewRecalibrator(feedback.NewStore(64, j),
		feedback.NewDetector(feedback.DriftConfig{MinSamples: 2}), cost.NewModels())
	points := &latestRecorder{}
	rec.Detector().SetRecorder(points)
	return &Server{rec: rec, journal: j, metrics: NewMetrics(telemetry.NewRegistry())}, points
}

// liveModelVersion is the version GET /v1/model reports.
func liveModelVersion(t *testing.T, s *Server) uint64 {
	t.Helper()
	w := httptest.NewRecorder()
	s.handleModel(w, httptest.NewRequest(http.MethodGet, "/v1/model", nil))
	var m ModelResponse
	if err := json.Unmarshal(w.Body.Bytes(), &m); w.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/model: %d %s (%v)", w.Code, w.Body, err)
	}
	return m.Version
}

// clip shortens a body for a failure message.
func clip(body []byte) string {
	if len(body) > 600 {
		return fmt.Sprintf("%q… (%d bytes)", body[:600], len(body))
	}
	return fmt.Sprintf("%q", body)
}

// checkFeedbackBody holds the codec to encoding/json on one request body:
// what DecodeBatch takes, decodeStrict takes and decodes to the same
// observations; and, taken or declined, the handler answers with the
// parent's status and bytes and leaves the store, the detector and the
// journal as the parent would. Replayed, both journals hold bit-identical
// observations; the handler's holds each accepted observation's wire line
// or, where DecodeBatch gave none, json.Marshal's; and for a body json.Marshal
// wrote, the two files are byte-identical. It returns whether the handler
// let the codec take the body.
func checkFeedbackBody(t *testing.T, js *feedbackJournals, body []byte) bool {
	t.Helper()
	took, _, _ := serveFeedbackPair(t, js, body)
	return took
}

// serveFeedbackPair is checkFeedbackBody, returning the two journal files
// as well: the handler's and the parent's.
func serveFeedbackPair(t *testing.T, js *feedbackJournals, body []byte) (took bool, journal, parentJournal []byte) {
	t.Helper()
	got, lines, ok := feedback.DecodeBatch(body, nil, nil)
	var req FeedbackRequest
	err := decodeStrict(bytes.NewReader(body), &req)
	if ok && err != nil {
		t.Fatalf("codec accepts %s, decodeStrict says %v", clip(body), err)
	}
	if ok && !reflect.DeepEqual(got, req.Observations) {
		t.Fatalf("body %s\n codec %#v\n json  %#v", clip(body), got, req.Observations)
	}
	if ok && len(lines) != len(got) {
		t.Fatalf("body %s: %d lines for %d observations", clip(body), len(lines), len(got))
	}

	serve := func(role int, handle func(*Server, http.ResponseWriter, *http.Request)) (*Server, *latestRecorder, *httptest.ResponseRecorder) {
		s, points := js.server(t, role)
		w := httptest.NewRecorder()
		before := s.rec.Current().Version
		handle(s, w, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
		// Whatever the body, the live model version GET /v1/model reports
		// does not go back.
		if after := liveModelVersion(t, s); after < before {
			t.Fatalf("body %s: /v1/model version went from %d back to %d", clip(body), before, after)
		}
		return s, points, w
	}
	// Both handlers stamp untimestamped observations with the wall clock: a
	// pair of runs that straddles a second is run again.
	var s, ref *Server
	var points *latestRecorder
	var w, want *httptest.ResponseRecorder
	var now int64
	for {
		now = time.Now().Unix()
		s, points, w = serve(0, (*Server).handleFeedback)
		ref, _, want = serve(1, parentHandleFeedback)
		if time.Now().Unix() == now {
			break
		}
	}
	if w.Code != want.Code || w.Body.String() != want.Body.String() {
		t.Fatalf("body %s\n answered %d %s\n parent   %d %s", clip(body), w.Code, w.Body, want.Code, want.Body)
	}
	// Whatever the body, the detector records no point past the server
	// clock plus the allowed skew, so none can move a history store's
	// high-water mark there.
	if limit := time.Now().Unix() + feedback.MaxClockSkewSeconds; points.latest > limit {
		t.Fatalf("body %s: a point recorded at %d, past the server clock plus skew, %d", clip(body), points.latest, limit)
	}
	if !reflect.DeepEqual(w.Header(), want.Header()) {
		t.Fatalf("body %s: headers %v, parent %v", clip(body), w.Header(), want.Header())
	}
	if s.rec.Store().Total() != ref.rec.Store().Total() ||
		!reflect.DeepEqual(s.rec.Detector().Stats(), ref.rec.Detector().Stats()) {
		t.Fatalf("body %s: store and detector differ from the parent's", clip(body))
	}
	took = s.metrics.FeedbackFallback.Value() == 0
	if took != (ok && len(body) <= MaxBodyBytes) {
		t.Fatalf("body %s: codec takes it = %v, fallbacks counted = %d", clip(body), ok, s.metrics.FeedbackFallback.Value())
	}
	checkJournals(t, body, s.journal.Path(), ref.journal.Path())
	journal, parentJournal = readFile(t, s.journal.Path()), readFile(t, ref.journal.Path())
	if took && w.Code == http.StatusOK {
		var lineFile []byte // the wire lines, json.Marshal where there is none
		for i := range got {
			if lines[i] != nil {
				lineFile = append(lineFile, lines[i]...)
			} else {
				o := got[i]
				if o.ObservedAt == 0 {
					o.ObservedAt = now
				}
				b, err := json.Marshal(&o)
				if err != nil {
					t.Fatal(err)
				}
				lineFile = append(lineFile, b...)
			}
			lineFile = append(lineFile, '\n')
		}
		if !bytes.Equal(journal, lineFile) {
			t.Fatalf("body %s: journal\n%s\nwant\n%s", clip(body), journal, lineFile)
		}
	}
	return took, journal, parentJournal
}

// checkJournals holds the handler's journal to the parent's: replayed, the
// same observations to the bit; for a body in json.Marshal's bytes, the
// same file.
func checkJournals(t *testing.T, body []byte, path, parentPath string) {
	t.Helper()
	got, err := feedback.ReadJournal(path)
	if err != nil {
		t.Fatalf("body %s: replaying the journal: %v", clip(body), err)
	}
	want, err := feedback.ReadJournal(parentPath)
	if err != nil {
		t.Fatalf("body %s: replaying the parent's journal: %v", clip(body), err)
	}
	if len(got) != len(want) {
		t.Fatalf("body %s: journal replays %d observations, parent's %d", clip(body), len(got), len(want))
	}
	for i := range got {
		if g, w := observationBits(&got[i]), observationBits(&want[i]); g != w {
			t.Fatalf("body %s: journal observation %d\n %s\n parent's\n %s", clip(body), i, g, w)
		}
	}
	if marshalShaped(body) {
		sameJournalBytes(t, body, readFile(t, path), readFile(t, parentPath))
	}
}

func sameJournalBytes(t *testing.T, body, journal, parentJournal []byte) {
	t.Helper()
	if !bytes.Equal(journal, parentJournal) {
		t.Fatalf("body %s: journal\n%s\nparent's\n%s", clip(body), journal, parentJournal)
	}
}

// marshalShaped reports whether body is byte for byte what json.Marshal
// writes for the batch it decodes to.
func marshalShaped(body []byte) bool {
	var req FeedbackRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return false
	}
	b, err := json.Marshal(req)
	return err == nil && bytes.Equal(b, body)
}

// observationBits renders o with every float as its bits, so -0 and 0 or
// two NaNs differ where they differ.
func observationBits(o *feedback.Observation) string {
	out := fmt.Sprintf("%q %q %x %x %x %x at=%d", o.Signature, o.Engine,
		math.Float64bits(o.PredictedSeconds), math.Float64bits(o.ObservedSeconds),
		math.Float64bits(float64(o.PredictedDollars)), math.Float64bits(float64(o.ObservedDollars)), o.ObservedAt)
	for _, s := range o.Operators {
		out += fmt.Sprintf(" [%q %x %x %x %x %x]", s.Algo, math.Float64bits(s.SSGB), math.Float64bits(s.CSGB),
			math.Float64bits(s.NC), math.Float64bits(s.PredictedSeconds), math.Float64bits(s.ObservedSeconds))
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// feedbackBodies are named /v1/feedback bodies and whether the codec takes
// them itself: the repository benchmark's shape, hand-written batches, and
// everything that must be left to encoding/json.
var feedbackBodies = []struct {
	name      string
	body      string
	canonical bool
}{
	{"bench shape", `{"observations":[{"signature":"bench-12","engine":"hive","predictedSeconds":173.40871843930694,"observedSeconds":215.64410862899327,"predictedDollars":0,"observedDollars":0,"observedAt":1700000625,"operators":[{"algo":"SMJ","ssGB":5.326530436353463,"csGB":7,"nc":84,"predictedSeconds":130.29375737632265,"observedSeconds":152.26723285321554},{"algo":"BHJ","ssGB":0.7421431358608848,"csGB":2,"nc":31,"predictedSeconds":43.11496106298428,"observedSeconds":63.37687577577773}]},{"signature":"bench-3","engine":"hive","predictedSeconds":1e21,"observedSeconds":1e-7,"predictedDollars":-0,"observedDollars":0,"observedAt":1700000625,"operators":[{"algo":"BHJ","ssGB":1,"csGB":2,"nc":31,"predictedSeconds":4,"observedSeconds":6}]}]}`, true},
	{"hand-written, no observedAt", `{"observations":[{"signature":"smoke-1","engine":"hive","predictedSeconds":10,"observedSeconds":40,"operators":[{"algo":"SMJ","ssGB":1,"csGB":3,"nc":5,"predictedSeconds":10,"observedSeconds":40}]},{"signature":"smoke-2","engine":"hive","predictedSeconds":20,"observedSeconds":80,"operators":[{"algo":"SMJ","ssGB":2,"csGB":4,"nc":6,"predictedSeconds":20,"observedSeconds":80}]}]}`, true},
	{"hand-written, with observedAt", `{"observations":[{"signature":"smoke-0","engine":"hive","predictedSeconds":10,"observedSeconds":40,"observedAt":1700000000}]}`, true},
	{"whitespace everywhere", " {\n \"observations\" : [ {\"engine\":\"hive\" , \"observedSeconds\" : 1 } ,\t{\"observedSeconds\":2,\"engine\":\"spark\"}\r\n] } \n", true},
	{"invalid observation", `{"observations":[{"engine":"hive","observedSeconds":1},{"engine":"","observedSeconds":1}]}`, true},
	{"observedAt zero", `{"observations":[{"engine":"hive","observedSeconds":1,"observedAt":0}]}`, true},
	{"html characters", `{"observations":[{"signature":"<a>&","engine":"hive","observedSeconds":1}]}`, true},
	{"newline inside an observation", "{\"observations\":[{\"engine\":\"hive\",\n\"observedSeconds\":1,\"observedAt\":1700000000},{\"engine\":\"hive\",\"observedSeconds\":2,\"observedAt\":1700000000}]}", true},
	{"carriage return inside an observation", "{\"observations\":[{\"engine\":\"hive\",\r\"observedSeconds\":1,\"observedAt\":1700000000}]}", true},
	{"observedAt missing", `{"observations":[{"signature":"s","engine":"hive","predictedSeconds":3,"observedSeconds":1,"operators":[{"algo":"SMJ","ssGB":1,"csGB":3,"nc":5,"predictedSeconds":10,"observedSeconds":40}]}]}`, true},
	{"observedAt minus zero", `{"observations":[{"engine":"hive","observedSeconds":1,"observedAt":-0}]}`, true},
	{"reordered keys, spaces and tabs", "{\"observations\":[ {\"observedAt\":1700000001,\t\"observedSeconds\" : 2.5 , \"engine\":\"spark\",\"operators\":[ {\"observedSeconds\":3,\t\"nc\":4,\"algo\":\"BHJ\",\"csGB\":2,\"ssGB\":1,\"predictedSeconds\":2} ],\"signature\":\"q-9\"\t} , {\"engine\":\"hive\",\"observedSeconds\":1,\"observedAt\":1700000001} ]}", true},
	{"literals json.Marshal would write otherwise", `{"observations":[{"engine":"hive","predictedSeconds":1.50,"observedSeconds":1E2,"predictedDollars":-0,"observedDollars":123456789012345678901234567890,"observedAt":1700000002,"operators":[{"algo":"SMJ","ssGB":0.123456789012345678901234567890,"csGB":1e-7,"nc":5e0,"predictedSeconds":1.0e+21,"observedSeconds":0.000001}]}]}`, true},

	{"escaped signature and mixed-case key", `{"observations":[{"signature":"a\"b","Engine":"hive","observedSeconds":1}]}`, false},
	{"non-ASCII", `{"observations":[{"signature":"⋈","engine":"hive","observedSeconds":1}]}`, false},
	{"observedAt as a float", `{"observations":[{"engine":"hive","observedSeconds":1,"observedAt":1.0}]}`, false},
	{"float out of range", `{"observations":[{"engine":"hive","observedSeconds":1e999}]}`, false},
	{"empty operators", `{"observations":[{"engine":"hive","observedSeconds":1,"operators":[]}]}`, false},
	{"null operators", `{"observations":[{"engine":"hive","observedSeconds":1,"operators":null}]}`, false},
	{"duplicate key", `{"observations":[{"engine":"hive","engine":"spark","observedSeconds":1}]}`, false},
	{"duplicate observations", `{"observations":[{"engine":"hive","observedSeconds":1}],"observations":[{"engine":"spark","observedSeconds":2}]}`, false},
	{"mixed-case observations", `{"Observations":[{"engine":"hive","observedSeconds":1}]}`, false},
	{"empty batch", `{"observations":[]}`, false},
	{"null batch", `{"observations":null}`, false},
	{"no batch", `{}`, false},
	{"unknown field", `{"observations":[{"engine":"hive","observedSeconds":1}],"frobnicate":1}`, false},
	{"unknown observation field", `{"observations":[{"engine":"hive","observedSeconds":1,"frobnicate":1}]}`, false},
	{"trailing data", `{"observations":[{"engine":"hive","observedSeconds":1}]}{"junk":1}`, false},
	{"cut short", `{"observations":[{"engine":"hive","observedSec`, false},
	{"not json", `not json`, false},
	{"empty body", ``, false},
}

func TestFeedbackCodecMatchesParent(t *testing.T) {
	js := newFeedbackJournals(t)
	for _, c := range feedbackBodies {
		if ok := checkFeedbackBody(t, js, []byte(c.body)); ok != c.canonical {
			t.Errorf("%s: codec took it = %v, want %v", c.name, ok, c.canonical)
		}
	}
}

// TestFeedbackJournalMatchesParentBytes: for batches json.Marshal wrote,
// with and without observedAt, and for a hand-written batch without
// observedAt (stamped and re-encoded), the journal is the parent's file
// byte for byte. (Hand-written observations with observedAt but no
// dollars keep the client's bytes and replay the same.)
func TestFeedbackJournalMatchesParentBytes(t *testing.T) {
	js := newFeedbackJournals(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		var req FeedbackRequest
		for j := 0; j < 8; j++ {
			o := validObservation(rng.Intn(100))
			o.PredictedSeconds = o.ObservedSeconds * (0.7 + 0.6*rng.Float64())
			o.Operators[0].SSGB = 0.1 + 8*rng.Float64()
			if i%2 == 0 {
				o.ObservedAt = 1_700_000_000 + rng.Int63n(600)
			}
			req.Observations = append(req.Observations, o)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !marshalShaped(body) {
			t.Fatalf("%s is not json.Marshal's bytes", clip(body))
		}
		if !checkFeedbackBody(t, js, body) {
			t.Fatalf("codec declined %s", clip(body))
		}
	}
	for _, c := range feedbackBodies {
		if c.name == "hand-written, no observedAt" {
			took, journal, parentJournal := serveFeedbackPair(t, js, []byte(c.body))
			if !took || len(journal) == 0 {
				t.Fatalf("%s: codec took it = %v, journal %q", c.name, took, journal)
			}
			sameJournalBytes(t, []byte(c.body), journal, parentJournal)
		}
	}
}

// FuzzObservationDecode runs checkFeedbackBody on arbitrary bytes as the
// request body and again as the one element of a batch. After each, no
// point the detector recorded is stamped past the server clock plus
// feedback.MaxClockSkewSeconds, and the live /v1/model version has not
// gone back. The journals are opened once per process (feedbackJournals).
func FuzzObservationDecode(f *testing.F) {
	for _, c := range feedbackBodies {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"engine":"hive","observedSeconds":1.5e3,"observedAt":-0}`))
	f.Add([]byte(`{"signature":"a","engine":"hive","observedSeconds":1},{"Engine":"x"}`))
	js := newFeedbackJournals(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFeedbackBody(t, js, body)
		checkFeedbackBody(t, js, []byte(`{"observations":[`+string(body)+`]}`))
	})
}

// TestFeedbackOversizedBody: what the 1 MB cap cuts off is answered as
// the parent answered it, whatever came before the cut.
func TestFeedbackOversizedBody(t *testing.T) {
	js := newFeedbackJournals(t)
	pad := strings.Repeat(" ", MaxBodyBytes)
	one := `{"engine":"hive","observedSeconds":1}`
	for _, body := range []string{
		`{"observations":[` + one + strings.Repeat(`,`+one, MaxBodyBytes/len(one)) + `]}`, // one value over the cap
		`{"observations":[` + one + `]}` + pad + `x`,                                      // a whole value, then the cap
		`{"observations":[` + one + `],"frobnicate":1}` + pad,                             // an error before the cap
		pad + `{"observations":[` + one + `]}`,                                            // nothing but padding under the cap
	} {
		if checkFeedbackBody(t, js, []byte(body)) {
			t.Fatalf("codec took a body of %d bytes", len(body))
		}
	}
}

// TestFeedbackBatchAllOrNothing: a batch the journal cannot take whole is
// refused whole. With the journal closed, and with a rotation that fails
// between two lines of a batch, the answer is a 500, the ring, the
// detector and the history store are as before, and the journal holds
// whole batches only, so the client's retry doubles nothing.
func TestFeedbackBatchAllOrNothing(t *testing.T) {
	batch := func(from int) []byte {
		body, err := json.Marshal(FeedbackRequest{Observations: []feedback.Observation{
			validObservation(from), validObservation(from + 1), validObservation(from + 2),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	lines := func(from int) string {
		var out []byte
		for i := from; i < from+3; i++ {
			o := validObservation(i)
			o.ObservedAt = 1_700_000_000 // what the bodies below carry
			line, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			out = append(append(out, line...), '\n')
		}
		return string(out)
	}
	stamp := func(body []byte) []byte { // give every observation an observedAt, so journal bytes are known
		return bytes.ReplaceAll(body, []byte(`,"operators"`), []byte(`,"observedAt":1700000000,"operators"`))
	}
	post := func(s *Server, body []byte) int {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
		return w.Code
	}
	type state struct {
		total     int64
		windows   []feedback.ClassStats
		committed int64
	}
	snapshot := func(s *Server) state {
		return state{s.rec.Store().Total(), s.rec.Detector().Stats(), s.hist.Stats().CommittedTotal}
	}

	t.Run("closed journal", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fb.jsonl")
		s, err := New(Config{JournalPath: path, HistoryDir: filepath.Join(dir, "hist"), RecalInterval: -1, HistoryInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if code := post(s, stamp(batch(0))); code != http.StatusOK {
			t.Fatalf("first batch: %d", code)
		}
		before := snapshot(s)
		if err := s.journal.Close(); err != nil {
			t.Fatal(err)
		}
		if code := post(s, stamp(batch(3))); code != http.StatusInternalServerError {
			t.Fatalf("batch on a closed journal: %d, want 500", code)
		}
		if after := snapshot(s); !reflect.DeepEqual(after, before) {
			t.Fatalf("refused batch left a trace: %+v, before %+v", after, before)
		}
		if file, err := os.ReadFile(path); err != nil || string(file) != lines(0) {
			t.Fatalf("journal holds\n%s\nwant the first batch only (err=%v)", file, err)
		}
	})

	t.Run("rotation fails mid-batch", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fb.jsonl")
		// A non-empty directory on a rotated slot: the rotation renames the
		// active file to fb.jsonl.2, then fails pruning fb.jsonl.1.
		if err := os.MkdirAll(filepath.Join(path+".1", "squatter"), 0o755); err != nil {
			t.Fatal(err)
		}
		first := lines(0)
		s, err := New(Config{
			JournalPath: path, JournalMaxFiles: 1,
			JournalMaxBytes: int64(len(first) + len(lines(3))*2/3), // the limit falls inside the second batch
			HistoryDir:      filepath.Join(dir, "hist"), RecalInterval: -1, HistoryInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if code := post(s, stamp(batch(0))); code != http.StatusOK {
			t.Fatalf("first batch: %d", code)
		}
		before := snapshot(s)
		if code := post(s, stamp(batch(3))); code != http.StatusInternalServerError {
			t.Fatalf("batch across the failing rotation: %d, want 500", code)
		}
		if after := snapshot(s); !reflect.DeepEqual(after, before) {
			t.Fatalf("refused batch left a trace: %+v, before %+v", after, before)
		}
		if file, err := os.ReadFile(path + ".2"); err != nil || string(file) != first {
			t.Fatalf("rotated file holds\n%s\nwant the first batch only (err=%v)", file, err)
		}
		// Degraded, not dead: the retry lands whole in the reopened file.
		if code := post(s, stamp(batch(3))); code != http.StatusOK {
			t.Fatalf("retry after the failed rotation: %d", code)
		}
		if file, err := os.ReadFile(path); err != nil || string(file) != lines(3) {
			t.Fatalf("active file holds\n%s\nwant the retried batch only (err=%v)", file, err)
		}
		if got := s.rec.Store().Total(); got != 6 {
			t.Fatalf("store total %d after two accepted batches, want 6", got)
		}
	})
}

// TestFeedbackScratchResetHoldsNothing: a reset scratch goes back to the
// pool with every observation and line slot it used zeroed, not merely
// truncated, so the pool keeps no request's signatures, engine names or
// operator slabs alive.
func TestFeedbackScratchResetHoldsNothing(t *testing.T) {
	sc := new(feedbackScratch)
	sc.body.WriteString(`{"observations":[` +
		`{"signature":"sig-a","engine":"hive","predictedSeconds":4,"observedSeconds":1,"observedAt":60,"operators":[{"algo":"SMJ","ssGB":1,"csGB":2,"nc":10,"predictedSeconds":4,"observedSeconds":1}]},` +
		`{"signature":"sig-b","engine":"hive","predictedSeconds":8,"observedSeconds":2,"observedAt":120}]}`)
	obs, lines, ok := feedback.DecodeBatch(sc.body.Bytes(), sc.obs, sc.lines)
	if !ok || len(obs) != 2 {
		t.Fatalf("canonical batch: ok %v, %d observations", ok, len(obs))
	}
	sc.obs, sc.lines = obs, lines
	sc.reset()
	if sc.body.Len() != 0 || len(sc.obs) != 0 || len(sc.lines) != 0 {
		t.Fatalf("reset left %d body bytes, %d observations, %d lines", sc.body.Len(), len(sc.obs), len(sc.lines))
	}
	for i, o := range sc.obs[:cap(sc.obs)] {
		if !reflect.DeepEqual(o, feedback.Observation{}) {
			t.Errorf("pooled observation slot %d still holds %+v", i, o)
		}
	}
	for i, l := range sc.lines[:cap(sc.lines)] {
		if l != nil {
			t.Errorf("pooled line slot %d still holds %q", i, l)
		}
	}
}
