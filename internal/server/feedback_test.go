package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"raqo/internal/cloud"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/plan"
	"raqo/internal/stats"
	"raqo/internal/workload"
)

// validObservation builds one well-formed feedback observation with a
// large relative error (prediction 4x the observation).
func validObservation(i int) feedback.Observation {
	obs := 10 + float64(i)
	return feedback.Observation{
		Signature:        "test-sig",
		Engine:           "hive",
		PredictedSeconds: 4 * obs,
		ObservedSeconds:  obs,
		Operators: []feedback.OperatorSample{{
			Algo: "SMJ", SSGB: 1 + float64(i%7), CSGB: 2 + float64(i%5), NC: 10 + float64(i%11),
			PredictedSeconds: 4 * obs, ObservedSeconds: obs,
		}},
	}
}

func TestFeedbackEndpointAcceptsBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := FeedbackRequest{Observations: []feedback.Observation{
		validObservation(0), validObservation(1), validObservation(2),
	}}
	resp := postJSON(t, ts.URL+"/v1/feedback", req)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var out FeedbackResponse
	decodeBodyInto(t, resp, &out)
	if out.Accepted != 3 || out.Stored != 3 || out.Total != 3 {
		t.Fatalf("response = %+v, want accepted/stored/total = 3", out)
	}

	// The ingested errors must land in the feedback histogram.
	if v, ok := scrapeMetric(t, ts.URL, "raqo_feedback_observations_total"); !ok || v != 3 {
		t.Errorf("raqo_feedback_observations_total = %g (present %v), want 3", v, ok)
	}
	if !strings.Contains(scrapeText(t, ts.URL), "raqo_feedback_rel_error_count 3") {
		t.Errorf("feedback error histogram did not record 3 observations")
	}
}

// scrapeText fetches the raw /metrics exposition.
func scrapeText(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(body)
}

// TestFeedbackEndpointRejects covers the 400 paths, including the
// all-or-nothing batch rule: one invalid observation rejects the whole
// request and stores nothing.
func TestFeedbackEndpointRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/feedback", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", `{"observations": `},
		{"unknown field", `{"observations":[],"frobnicate":1}`},
		{"empty batch", `{"observations":[]}`},
		{"missing engine", `{"observations":[{"signature":"x","predictedSeconds":1,"observedSeconds":1}]}`},
		{"nonpositive observed", `{"observations":[{"engine":"hive","predictedSeconds":1,"observedSeconds":0}]}`},
		{"bad operator algo", `{"observations":[{"engine":"hive","observedSeconds":1,"operators":[{"algo":"NLJ","ssGB":1,"csGB":1,"nc":1,"observedSeconds":1}]}]}`},
		{"all or nothing", `{"observations":[{"engine":"hive","predictedSeconds":1,"observedSeconds":1},{"engine":"","observedSeconds":1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, b)
			}
			var e ErrorResponse
			decodeBodyInto(t, resp, &e)
			if e.Error == "" {
				t.Fatalf("error body missing error field")
			}
		})
	}
	if n := s.Recalibrator().Store().Len(); n != 0 {
		t.Fatalf("store holds %d observations after rejected batches, want 0", n)
	}
}

// TestFeedbackNegativeAmountsRejected: a negative predicted time, at the
// query or an operator, or a negative dollar amount is a 400 naming the
// field, and the batch leaves no trace in the store, the detector or the
// error histogram; a zero (either sign) is accepted.
func TestFeedbackNegativeAmountsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(obs string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/feedback", "application/json", strings.NewReader(`{"observations":[`+obs+`]}`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var e ErrorResponse
		decodeBodyInto(t, resp, &e)
		return resp.StatusCode, e.Error
	}
	const op = `{"algo":"SMJ","ssGB":1,"csGB":2,"nc":4,"predictedSeconds":%s,"observedSeconds":3}`
	for _, tc := range []struct{ obs, field string }{
		{`{"engine":"hive","predictedSeconds":-1e300,"observedSeconds":40}`, "predictedSeconds"},
		{`{"engine":"hive","predictedSeconds":-0.5,"observedSeconds":40}`, "predictedSeconds"},
		{`{"engine":"hive","predictedSeconds":10,"observedSeconds":40,"operators":[` + fmt.Sprintf(op, "-5") + `]}`, "operator 0 predictedSeconds"},
		{`{"engine":"hive","predictedSeconds":10,"observedSeconds":40,"predictedDollars":-1}`, "predictedDollars"},
		{`{"engine":"hive","predictedSeconds":10,"observedSeconds":40,"observedDollars":-1e-9}`, "observedDollars"},
	} {
		// Alone, and behind a valid observation: the batch goes whole.
		for _, body := range []string{tc.obs, `{"engine":"hive","predictedSeconds":1,"observedSeconds":1},` + tc.obs} {
			if code, msg := post(body); code != http.StatusBadRequest || !strings.Contains(msg, tc.field+" must not be negative") {
				t.Errorf("%s: status %d %q, want 400 naming %s", body, code, msg, tc.field)
			}
		}
	}
	if n := s.Recalibrator().Store().Len(); n != 0 {
		t.Fatalf("store holds %d observations after rejected batches, want 0", n)
	}
	if st := s.Recalibrator().Detector().Stats(); len(st) != 0 {
		t.Fatalf("rejected batches reached the detector: %+v", st)
	}
	if v, ok := scrapeMetric(t, ts.URL, "raqo_feedback_rel_error_count"); ok && v != 0 {
		t.Fatalf("rejected batches reached the error histogram: count %v", v)
	}
	for _, zero := range []string{"0", "-0"} {
		obs := fmt.Sprintf(`{"engine":"hive","predictedSeconds":%s,"observedSeconds":40,"predictedDollars":%s,"observedDollars":%s,"operators":[`+op+`]}`, zero, zero, zero, zero)
		if code, msg := post(obs); code != http.StatusOK {
			t.Errorf("zero amounts (%s): status %d %q, want 200", zero, code, msg)
		}
	}
}

func TestModelEndpointReportsSeed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatalf("GET /v1/model: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out ModelResponse
	decodeBodyInto(t, resp, &out)
	if out.Version != 1 {
		t.Errorf("version = %d, want 1 (seed)", out.Version)
	}
	if len(out.Models) == 0 {
		t.Errorf("model response lists no models")
	}
	if out.Recalibrations != 0 || out.Drifted {
		t.Errorf("fresh server reports recalibrations=%d drifted=%v", out.Recalibrations, out.Drifted)
	}
	def := feedback.DriftConfig{}
	if out.DriftThreshold != defWithDefaultsThreshold(def) {
		t.Errorf("driftThreshold = %g, want detector default", out.DriftThreshold)
	}
}

// defWithDefaultsThreshold resolves the detector's default threshold via a
// throwaway detector, so the test tracks the package default.
func defWithDefaultsThreshold(cfg feedback.DriftConfig) float64 {
	return feedback.NewDetector(cfg).Config().Threshold
}

var (
	servedOnce sync.Once
	served     *cost.Models
	servedErr  error
)

// servedModels is the set a server built without Options.Models plans on,
// trained on cloud.Engine(), built once per test binary.
func servedModels(t testing.TB) *cost.Models {
	t.Helper()
	servedOnce.Do(func() { served, servedErr = workload.TrainedModels(cloud.Engine()) })
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return served
}

// skewedHiveModels returns the simulator-trained Hive model set with every
// coefficient scaled by factor — a deliberately miscalibrated seed.
func skewedHiveModels(t *testing.T, factor float64) *cost.Models {
	t.Helper()
	truth := servedModels(t)
	skewed := cost.NewModels()
	for _, a := range plan.Algos {
		m, ok := truth.For(a)
		if !ok {
			continue
		}
		reg, ok := m.(*cost.Regression)
		if !ok {
			t.Fatalf("trained model for %s is not a regression", a)
		}
		lm := &stats.LinearModel{
			Coef:      append([]float64(nil), reg.Linear.Coef...),
			Intercept: reg.Linear.Intercept * factor,
		}
		for i := range lm.Coef {
			lm.Coef[i] *= factor
		}
		skewed.Set(a, cost.NewRegression("skew-"+a.String(), lm))
	}
	return skewed
}

// TestFeedbackDriftRecalibratesOverHTTP drives the whole adaptivity loop
// through the real service: a server seeded with 4x-skewed models and a
// fast background recalibration loop receives accurate feedback over
// POST /v1/feedback; the drift detector fires, the loop retrains, and
// GET /v1/model reports the recalibrator's new live version and the
// versioned model names. The journal on disk replays to exactly the
// accepted observations.
func TestFeedbackDriftRecalibratesOverHTTP(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := New(Config{
		Options:       optionsWithModels(skewedHiveModels(t, 4)),
		JournalPath:   journalPath,
		Drift:         feedback.DriftConfig{MinSamples: 8},
		RecalInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.Serve(ctx, "127.0.0.1:0", func(addr string) { addrc <- addr })
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("listener never came up")
	}

	// Accurate feedback: simulator ground truth predicted by the skewed
	// model (relative error ~3, far over the drift threshold). The first 40
	// grid points cover both algorithms well past the training minimum.
	grid := workload.DefaultProfileGrid(execsim.Hive())[:40]
	obs := feedback.SyntheticObservations("hive", s.Recalibrator().Models(), grid)
	resp := postJSON(t, base+"/v1/feedback", FeedbackRequest{Observations: obs})
	var fb FeedbackResponse
	decodeBodyInto(t, resp, &fb)
	if resp.StatusCode != http.StatusOK || fb.Accepted != len(obs) {
		t.Fatalf("feedback post: status %d, response %+v", resp.StatusCode, fb)
	}
	if !fb.Drifted {
		t.Fatalf("detector did not report drift after %d high-error observations", len(obs))
	}
	if v, ok := scrapeMetric(t, base, "raqo_feedback_journal_writes_total"); !ok || v != 1 {
		t.Errorf("raqo_feedback_journal_writes_total = %g (present %v), want 1 for one batch", v, ok)
	}

	// The background loop must pick the drift up and swap the model.
	var model ModelResponse
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mresp, err := http.Get(base + "/v1/model")
		if err != nil {
			t.Fatalf("GET /v1/model: %v", err)
		}
		decodeBodyInto(t, mresp, &model)
		if model.Version >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if model.Version < 2 {
		t.Fatalf("model version never advanced past the seed: %+v", model)
	}
	if model.Recalibrations != int64(model.Version-1) {
		t.Errorf("recalibrations = %d, want %d (version-1)", model.Recalibrations, model.Version-1)
	}
	if live := s.Recalibrator().Current().Version; model.Version != live {
		t.Errorf("/v1/model version = %d, the recalibrator's live version is %d", model.Version, live)
	}
	if model.TrainedOn < 8 {
		t.Errorf("trainedOn = %d, want >= 8 samples", model.TrainedOn)
	}
	foundVersioned := false
	for _, name := range model.Models {
		if strings.HasPrefix(name, "fb") {
			foundVersioned = true
		}
	}
	if !foundVersioned {
		t.Errorf("no versioned (fb-prefixed) model name in %v", model.Models)
	}

	// The optimizer now plans under the recalibrated set.
	if got := s.opt.Models(); got != s.Recalibrator().Models() {
		t.Errorf("optimizer models were not swapped to the recalibrated set")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve never returned after cancellation (recal loop leak?)")
	}

	replayed, err := feedback.ReadJournal(journalPath)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(replayed) != len(obs) {
		t.Fatalf("journal replays %d observations, want %d", len(replayed), len(obs))
	}
}

// optionsWithModels is a tiny helper keeping the test call sites readable.
func optionsWithModels(m *cost.Models) (o core.Options) {
	o.Models = m
	return o
}
