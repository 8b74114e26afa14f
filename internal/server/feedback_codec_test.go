package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// codec: encoding/json on the request stream, one Feed per observation. It
// is the reference the handler's status and body are held to.
func parentHandleFeedback(s *Server, w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing observations"))
		return
	}
	for i := range req.Observations {
		if err := req.Observations[i].Validate(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("observation %d: %w", i, err))
			return
		}
	}
	now := time.Now().Unix()
	for i := range req.Observations {
		o := req.Observations[i]
		if o.ObservedAt == 0 {
			o.ObservedAt = now
		}
		if err := s.rec.Feed(o); err != nil {
			writeError(w, http.StatusInternalServerError, err)
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

// bareFeedbackServer is the part of a Server the feedback handlers touch:
// a recalibrator over a small ring, no journal, no history.
func bareFeedbackServer() *Server {
	rec := feedback.NewRecalibrator(feedback.NewStore(64, nil),
		feedback.NewDetector(feedback.DriftConfig{MinSamples: 2}), cost.NewModels())
	return &Server{rec: rec, metrics: NewMetrics(telemetry.NewRegistry())}
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
// parent's status and bytes and leaves the store and the detector as the
// parent would. It returns whether the handler let the codec take the body.
func checkFeedbackBody(t *testing.T, body []byte) bool {
	t.Helper()
	got, ok := feedback.DecodeBatch(body, nil)
	var req FeedbackRequest
	err := decodeStrict(bytes.NewReader(body), &req)
	if ok && err != nil {
		t.Fatalf("codec accepts %s, decodeStrict says %v", clip(body), err)
	}
	if ok && !reflect.DeepEqual(got, req.Observations) {
		t.Fatalf("body %s\n codec %#v\n json  %#v", clip(body), got, req.Observations)
	}

	serve := func(handle func(*Server, http.ResponseWriter, *http.Request)) (*Server, *httptest.ResponseRecorder) {
		s, w := bareFeedbackServer(), httptest.NewRecorder()
		handle(s, w, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
		return s, w
	}
	s, w := serve((*Server).handleFeedback)
	ref, want := serve(parentHandleFeedback)
	if w.Code != want.Code || w.Body.String() != want.Body.String() {
		t.Fatalf("body %s\n answered %d %s\n parent   %d %s", clip(body), w.Code, w.Body, want.Code, want.Body)
	}
	if !reflect.DeepEqual(w.Header(), want.Header()) {
		t.Fatalf("body %s: headers %v, parent %v", clip(body), w.Header(), want.Header())
	}
	if s.rec.Store().Total() != ref.rec.Store().Total() ||
		!reflect.DeepEqual(s.rec.Detector().Stats(), ref.rec.Detector().Stats()) {
		t.Fatalf("body %s: store and detector differ from the parent's", clip(body))
	}
	took := s.metrics.FeedbackFallback.Value() == 0
	if took != (ok && len(body) <= maxBodyBytes) {
		t.Fatalf("body %s: codec takes it = %v, fallbacks counted = %d", clip(body), ok, s.metrics.FeedbackFallback.Value())
	}
	return took
}

// feedbackBodies are named /v1/feedback bodies and whether the codec takes
// them itself: the repository benchmark's shape, the smoke scripts', and
// everything that must be left to encoding/json.
var feedbackBodies = []struct {
	name      string
	body      string
	canonical bool
}{
	{"bench shape", `{"observations":[{"signature":"bench-12","engine":"hive","predictedSeconds":173.40871843930694,"observedSeconds":215.64410862899327,"predictedDollars":0,"observedDollars":0,"observedAt":1700000625,"operators":[{"algo":"SMJ","ssGB":5.326530436353463,"csGB":7,"nc":84,"predictedSeconds":130.29375737632265,"observedSeconds":152.26723285321554},{"algo":"BHJ","ssGB":0.7421431358608848,"csGB":2,"nc":31,"predictedSeconds":43.11496106298428,"observedSeconds":63.37687577577773}]},{"signature":"bench-3","engine":"hive","predictedSeconds":1e21,"observedSeconds":1e-7,"predictedDollars":-0,"observedDollars":0,"observedAt":1700000625,"operators":[{"algo":"BHJ","ssGB":1,"csGB":2,"nc":31,"predictedSeconds":4,"observedSeconds":6}]}]}`, true},
	{"smoke_feedback shape", `{"observations":[{"signature":"smoke-1","engine":"hive","predictedSeconds":10,"observedSeconds":40,"operators":[{"algo":"SMJ","ssGB":1,"csGB":3,"nc":5,"predictedSeconds":10,"observedSeconds":40}]},{"signature":"smoke-2","engine":"hive","predictedSeconds":20,"observedSeconds":80,"operators":[{"algo":"SMJ","ssGB":2,"csGB":4,"nc":6,"predictedSeconds":20,"observedSeconds":80}]}]}`, true},
	{"smoke_history shape", `{"observations":[{"signature":"smoke-0","engine":"hive","predictedSeconds":10,"observedSeconds":40,"observedAt":1700000000}]}`, true},
	{"whitespace everywhere", " {\n \"observations\" : [ {\"engine\":\"hive\" , \"observedSeconds\" : 1 } ,\t{\"observedSeconds\":2,\"engine\":\"spark\"}\r\n] } \n", true},
	{"invalid observation", `{"observations":[{"engine":"hive","observedSeconds":1},{"engine":"","observedSeconds":1}]}`, true},
	{"observedAt zero", `{"observations":[{"engine":"hive","observedSeconds":1,"observedAt":0}]}`, true},
	{"html characters", `{"observations":[{"signature":"<a>&","engine":"hive","observedSeconds":1}]}`, true},

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
	for _, c := range feedbackBodies {
		if ok := checkFeedbackBody(t, []byte(c.body)); ok != c.canonical {
			t.Errorf("%s: codec took it = %v, want %v", c.name, ok, c.canonical)
		}
	}
}

// FuzzObservationDecode runs checkFeedbackBody on arbitrary bytes as the
// request body and again as the one element of a batch.
func FuzzObservationDecode(f *testing.F) {
	for _, c := range feedbackBodies {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"engine":"hive","observedSeconds":1.5e3,"observedAt":-0}`))
	f.Add([]byte(`{"signature":"a","engine":"hive","observedSeconds":1},{"Engine":"x"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFeedbackBody(t, body)
		checkFeedbackBody(t, []byte(`{"observations":[`+string(body)+`]}`))
	})
}

// TestFeedbackOversizedBody: what the 1 MB cap cuts off is answered as
// the parent answered it, whatever came before the cut.
func TestFeedbackOversizedBody(t *testing.T) {
	pad := strings.Repeat(" ", maxBodyBytes)
	one := `{"engine":"hive","observedSeconds":1}`
	for _, body := range []string{
		`{"observations":[` + one + strings.Repeat(`,`+one, maxBodyBytes/len(one)) + `]}`, // one value over the cap
		`{"observations":[` + one + `]}` + pad + `x`,                                      // a whole value, then the cap
		`{"observations":[` + one + `],"frobnicate":1}` + pad,                             // an error before the cap
		pad + `{"observations":[` + one + `]}`,                                            // nothing but padding under the cap
	} {
		if checkFeedbackBody(t, []byte(body)) {
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
