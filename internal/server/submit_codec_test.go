package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"raqo/internal/canonjson"
	"raqo/internal/cloud"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/scheduler"
	"raqo/internal/units"
	"raqo/internal/workload"
)

// parentHandleSubmit and parentHandleCloudSubmit are the submit handlers
// as they stood before the canonical scanner and the fixed-shape encoders:
// encoding/json on the request stream, WriteResult on the outcome. They
// are the reference the handlers' statuses, headers and bodies are held to.
func parentHandleSubmit(s *Server, w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Policy == "" {
		req.Policy = scheduler.Reoptimize.String()
	}
	policy, err := scheduler.ParsePolicy(req.Policy)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		WriteError(w, http.StatusBadRequest, errors.New("missing query"))
		return
	}
	s.arb.mu.Lock()
	out, err := s.arb.SubmitWait(req.Tenant, req.Query, policy)
	s.arb.mu.Unlock()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	WriteResult(w, NewSubmitResponse(out))
}

func parentHandleCloudSubmit(s *Server, w http.ResponseWriter, r *http.Request) {
	var req CloudSubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	rec, err := cloud.ParseRecovery(req.Recovery)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		WriteError(w, http.StatusBadRequest, errors.New("missing query"))
		return
	}
	s.cld.mu.Lock()
	out, err := s.cld.arb.SubmitWait(req.Tenant, req.Query, rec)
	s.cld.mu.Unlock()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	WriteResult(w, NewCloudSubmitResponse(out))
}

// submitPair is two servers built alike: one answers through the
// handlers, the other through the parent's. Fed the same bodies in the
// same order, their arbiters stay in the same state as long as every
// answer agrees.
type submitPair struct{ s, ref *Server }

func newSubmitPair(tb testing.TB) submitPair {
	tb.Helper()
	var p submitPair
	for _, s := range []**Server{&p.s, &p.ref} {
		var err error
		if *s, err = New(Config{CloudSeed: 7, ArbiterCapacity: 40}); err != nil {
			tb.Fatal(err)
		}
		srv := *s
		tb.Cleanup(func() { _ = srv.Close() })
	}
	return p
}

// checkSubmitBody holds both submit codecs to encoding/json on one body:
// what the scanner takes, decodeStrict decodes to the same request, and
// ScanSubmit's tenant is json.Unmarshal's; taken or declined, each handler
// answers with the parent's status, headers and bytes.
func (p submitPair) checkSubmitBody(t *testing.T, body []byte) {
	t.Helper()
	var m [3][]byte
	if canonjson.StringObject(body, submitMembers, m[:]) {
		var req SubmitRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("scanner takes /v1/submit body %s, decodeStrict says %v", clip(body), err)
		}
		if want := (SubmitRequest{Tenant: string(m[0]), Query: string(m[1]), Policy: string(m[2])}); req != want {
			t.Fatalf("/v1/submit body %s: scanner %+v, encoding/json %+v", clip(body), want, req)
		}
	}
	if canonjson.StringObject(body, cloudSubmitMembers, m[:]) {
		var req CloudSubmitRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("scanner takes /v1/cloud/submit body %s, decodeStrict says %v", clip(body), err)
		}
		if want := (CloudSubmitRequest{Tenant: string(m[0]), Query: string(m[1]), Recovery: string(m[2])}); req != want {
			t.Fatalf("/v1/cloud/submit body %s: scanner %+v, encoding/json %+v", clip(body), want, req)
		}
	}
	if m, ok := ScanSubmit(body); ok {
		var req struct {
			Tenant string `json:"tenant"`
		}
		if err := json.Unmarshal(body, &req); err != nil || req.Tenant != string(m[0]) {
			t.Fatalf("body %s: ScanSubmit's tenant %q, json.Unmarshal's %q (%v)", clip(body), m[0], req.Tenant, err)
		}
	}

	for _, h := range []struct {
		path        string
		handle, ref func(*Server, http.ResponseWriter, *http.Request)
	}{
		{"/v1/submit", (*Server).handleSubmit, parentHandleSubmit},
		{"/v1/cloud/submit", (*Server).handleCloudSubmit, parentHandleCloudSubmit},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		h.handle(p.s, got, httptest.NewRequest(http.MethodPost, h.path, bytes.NewReader(body)))
		h.ref(p.ref, want, httptest.NewRequest(http.MethodPost, h.path, bytes.NewReader(body)))
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%s body %s\n answered %d %s\n parent   %d %s", h.path, clip(body), got.Code, got.Body, want.Code, want.Body)
		}
		if !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("%s body %s: headers %v, parent %v", h.path, clip(body), got.Header(), want.Header())
		}
	}
}

// submitSeeds are submit bodies in and out of the canonical form: the
// benchmark's shapes, whitespace, every key and policy, and each way to
// leave the form (case, escapes, repeats, null, numbers, trailing data,
// non-ASCII, unknown names).
var submitSeeds = []string{
	`{"tenant":"default","query":"Q12","policy":"wait"}`,
	`{"tenant":"default","query":"Q3","recovery":"ondemand"}`,
	`{"query":"Q2","policy":"degrade"}`,
	`{"query":"All","recovery":"degrade"}`,
	`{"query":"Q12"}`,
	" \t\r\n{ \"query\" : \"Q3\" , \"tenant\" : \"default\" } \n",
	`{}`,
	`{"tenant":""}`,
	`{"query":""}`,
	`{"Query":"Q12"}`,
	`{"query":"Q12","query":"Q3"}`,
	`{"query":"Q1\u0032"}`,
	`{"query":"Q12","policy":"wa\/it"}`,
	`{"query":null}`,
	`{"query":12}`,
	`{"query":["Q12"]}`,
	`{"query":"Q12"}x`,
	`{"query":"Q12"}{}`,
	`{"query":"Q12",}`,
	`{"query":"Q12"`,
	`{"query" "Q12"}`,
	"{\"query\":\"Q\xff\"}",
	"{\"query\":\"Q\x01\"}",
	"{\"query\":\"Q\u00e9\"}",
	`[]`,
	`null`,
	``,
	`{"tenant":"ghost","query":"Q12"}`,
	`{"query":"nope"}`,
	`{"query":"Q12","policy":"bogus"}`,
	`{"query":"Q12","recovery":"bogus"}`,
	`{"query":"Q12","policy":"wait","recovery":"ondemand"}`,
	`{"query":"Q12","extra":"x"}`,
	`{"query":"All","policy":"wait"}`,
}

// TestSubmitCodecMatchesParent runs every seed, plus bodies over the
// request-size bound, through both handlers twice: the second pass meets
// arbiters the first pass changed.
func TestSubmitCodecMatchesParent(t *testing.T) {
	p := newSubmitPair(t)
	pad := strings.Repeat(" ", MaxBodyBytes)
	bodies := append([]string(nil), submitSeeds...)
	bodies = append(bodies,
		`{"query":"Q12"}`+pad,                  // a canonical value, then whitespace past the bound
		`{"query":"Q12"} x`+pad,                // trailing data inside the bound, then past it
		`{"query":"Q12`+pad+`"}`,               // a string that crosses the bound
		pad[:MaxBodyBytes-20]+`{"query":"Q3"}`, // inside the bound, barely
	)
	for pass := 0; pass < 2; pass++ {
		for _, b := range bodies {
			p.checkSubmitBody(t, []byte(b))
		}
	}
}

// FuzzSubmitDecode runs checkSubmitBody on arbitrary bytes, then drains
// both servers' cloud pools, which keeps the pair alike, and requires the
// cloud arbiter's accounting to have lost no submission.
func FuzzSubmitDecode(f *testing.F) {
	for _, s := range submitSeeds {
		f.Add([]byte(s))
	}
	p := newSubmitPair(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		p.checkSubmitBody(t, body)
		for _, s := range []*Server{p.s, p.ref} {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cloud/stats?drain=1", nil))
			var st cloud.Stats
			if err := json.Unmarshal(w.Body.Bytes(), &st); w.Code != http.StatusOK || err != nil {
				t.Fatalf("body %s: GET /v1/cloud/stats?drain=1: %d %s (%v)", clip(body), w.Code, w.Body, err)
			}
			if st.Lost != 0 {
				t.Fatalf("body %s: %d submissions lost after the drain: %+v", clip(body), st.Lost, st)
			}
		}
	})
}

// checkFixed answers v through its fixed-shape encoder and through
// WriteResult, and fails unless the status, the headers and the bytes
// agree.
func checkFixed[T any](t *testing.T, v T, appendV func([]byte, T) ([]byte, bool)) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writeFixed(got, v, appendV)
	WriteResult(want, v)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || !reflect.DeepEqual(got.Header(), want.Header()) {
		t.Fatalf("%#v:\n fixed       %d %v %q\n WriteResult %d %v %q", v,
			got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
	}
}

// TestFixedEncodersMatchWriteResult holds the feedback, submit and cloud
// submit encoders to WriteResult on live outcomes and on random values:
// floats across every magnitude and both exponent forms, NaN and the
// infinities (WriteResult's 500), and names json.Marshal escapes.
func TestFixedEncodersMatchWriteResult(t *testing.T) {
	s, err := New(Config{CloudSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	for _, q := range []string{"Q12", "Q3", "Q2", "All"} {
		sub, err := s.arb.SubmitWait("default", q, scheduler.Degrade)
		if err != nil {
			t.Fatal(err)
		}
		checkFixed(t, NewSubmitResponse(sub), appendSubmitResponse)
		csub, err := s.cld.arb.SubmitWait("default", q, cloud.RecoverOnDemand)
		if err != nil {
			t.Fatal(err)
		}
		checkFixed(t, NewCloudSubmitResponse(csub), appendCloudSubmitResponse)
	}

	rng := rand.New(rand.NewSource(36))
	special := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20, 1e21, 1.5e21, math.MaxFloat64, -1e-300,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Float64frombits(rng.Uint64()) // NaN now and then
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
	}
	names := []string{"default", "etl", "", "tenant-7", awkward, "<b>&", "ünï", `a"b`, "tab\there", "Q12"}
	name := func() string { return names[rng.Intn(len(names))] }
	for i := 0; i < 3000; i++ {
		checkFixed(t, SubmitResponse{
			Tenant: name(), Query: name(), Policy: name(),
			ArrivalSeconds: float(), StartSeconds: float(), FinishSeconds: float(),
			QueueSeconds: float(), ExecSeconds: float(), QueueRunRatio: float(),
			Replanned: rng.Intn(2) == 0, Degraded: rng.Intn(2) == 0,
			Containers: rng.Intn(1 << 20), ContainerGB: float(),
		}, appendSubmitResponse)
		checkFixed(t, CloudSubmitResponse{
			Tenant: name(), Query: name(), Recovery: name(), Class: name(), Tier: name(),
			ArrivalSeconds: float(), StartSeconds: float(), FinishSeconds: float(),
			QueueSeconds: float(), ExecSeconds: float(),
			Preemptions: rng.Intn(9) - 1, OOMRetries: rng.Intn(9),
			Straggled: rng.Intn(2) == 0, Degraded: rng.Intn(2) == 0, Replanned: rng.Intn(2) == 0,
			Containers: rng.Intn(1 << 20), ContainerGB: float(), BillUSD: units.USD(float()),
		}, appendCloudSubmitResponse)
		checkFixed(t, FeedbackResponse{
			Accepted: rng.Intn(1 << 16), Stored: rng.Int(), Total: rng.Int63() - rng.Int63(), Drifted: rng.Intn(2) == 0,
		}, appendFeedbackResponse)
	}
	checkFixed(t, SubmitResponse{}, appendSubmitResponse)
	checkFixed(t, CloudSubmitResponse{}, appendCloudSubmitResponse)
	checkFixed(t, FeedbackResponse{}, appendFeedbackResponse)
}

// TestModelJSONMatchesWriteResult holds GET /v1/model to WriteResult's
// bytes for the same snapshot: from the live handler on a fresh server,
// after drifting feedback and after a recalibration, and from random
// snapshots with nil, empty and awkward slices and every float class.
func TestModelJSONMatchesWriteResult(t *testing.T) {
	s, err := New(Config{Options: optionsWithModels(skewedHiveModels(t, 4)), Drift: feedback.DriftConfig{MinSamples: 8}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	h := s.Handler()
	live := func(state string) {
		t.Helper()
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/v1/model", nil))
		WriteResult(want, NewModelResponse(s.rec))
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("%s: /v1/model answered\n%d %v %q\nWriteResult\n%d %v %q", state,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
		if _, ok := appendModelResponse(nil, NewModelResponse(s.rec)); !ok {
			t.Fatalf("%s: the snapshot fell back to WriteResult", state)
		}
	}
	live("fresh")
	grid := workload.DefaultProfileGrid(execsim.Hive())[:40]
	obs := feedback.SyntheticObservations("hive", s.Recalibrator().Models(), grid)
	if err := s.rec.FeedBatch(obs, nil); err != nil {
		t.Fatal(err)
	}
	if !s.rec.Detector().Drifted() {
		t.Fatal("skewed feedback did not drift the detector")
	}
	if len(NewModelResponse(s.rec).ErrorStats) == 0 {
		t.Fatal("no error stats after feedback")
	}
	live("drifted")
	if _, err := s.rec.Recalibrate(); err != nil {
		t.Fatal(err)
	}
	live("recalibrated")

	rng := rand.New(rand.NewSource(45))
	special := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e21, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		}
		return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	names := []string{"hive-smj", "hive-bhj", "", awkward, "<b>&", `a"b`, "ünï"}
	name := func() string { return names[rng.Intn(len(names))] }
	for i := 0; i < 3000; i++ {
		r := ModelResponse{
			Version: rng.Uint64(), TrainedOn: rng.Int() - rng.Int(), Recalibrations: rng.Int63() - rng.Int63(),
			LastRecalSecs: float(), Drifted: rng.Intn(2) == 0, DriftThreshold: float(), DriftQuantile: float(),
			StoredFeedback: rng.Intn(1 << 20), TotalFeedback: rng.Int63(),
		}
		if n := rng.Intn(4) - 1; n >= 0 { // -1: nil
			r.Models = make([]string, n)
			for j := range r.Models {
				r.Models[j] = name()
			}
		}
		if n := rng.Intn(4) - 1; n >= 0 {
			r.ErrorStats = make([]feedback.ClassStats, n)
			for j := range r.ErrorStats {
				r.ErrorStats[j] = feedback.ClassStats{Engine: name(), Class: name(), Samples: rng.Int() - rng.Int(), QuantileError: float(), Drifted: rng.Intn(2) == 0}
			}
		}
		checkFixed(t, r, appendModelResponse)
	}
	checkFixed(t, ModelResponse{}, appendModelResponse)
}

// TestStatsEncodersMatchWriteResult holds GET /v1/arbiter/stats and
// GET /v1/cloud/stats to WriteResult's bytes: the live stats after each of
// 50 submits on both pools, faults on, the zero values (nil classes and
// tenants are null), and random values across every float class — a NaN
// or infinite spend is WriteResult's 500 — and names json.Marshal
// escapes.
func TestStatsEncodersMatchWriteResult(t *testing.T) {
	s, err := New(Config{CloudSeed: 7, CloudTenants: []cloud.TenantConfig{{Name: "etl", Weight: 2}, {Name: "bi", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	queries := []string{workload.Q12, workload.Q3, workload.Q2, workload.All}
	policies := []scheduler.Policy{scheduler.Reoptimize, scheduler.Wait, scheduler.Degrade}
	recoveries := []cloud.Recovery{cloud.RecoverReoptimize, cloud.RecoverOnDemand, cloud.RecoverDegrade}
	for i := 0; i < 50; i++ {
		if _, err := s.arb.SubmitWait("default", queries[i%4], policies[i%3]); err != nil && !errors.Is(err, cloud.ErrRejected) {
			t.Fatal(err)
		}
		checkFixed(t, s.arb.Stats(), appendArbiterStats)
		if _, err := s.cld.arb.SubmitWait([]string{"etl", "bi"}[i%2], queries[i%4], recoveries[i%3]); err != nil && !errors.Is(err, cloud.ErrRejected) {
			t.Fatal(err)
		}
		checkFixed(t, s.cld.arb.Stats(), appendCloudStats)
	}
	if st := s.cld.arb.Stats(); st.SpendUSD <= 0 || st.Completed == 0 {
		t.Fatalf("50 cloud submits left no spend or completion: %+v", st)
	}
	checkFixed(t, ArbiterStats{}, appendArbiterStats)
	checkFixed(t, cloud.Stats{}, appendCloudStats)
	checkFixed(t, cloud.Stats{Classes: []cloud.ClassStats{}, Tenants: []cloud.TenantStats{}}, appendCloudStats)

	rng := rand.New(rand.NewSource(48))
	special := []float64{0, math.Copysign(0, -1), 1, 100, 1e15, 1e-6, 9.99e-7, 1e21, 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return float64(rng.Int63n(1<<54) - 1<<53) // integral, both sides of 1e15
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	names := []string{"od-10g", "spot-10g", "", "etl", awkward, "<b>&", `a"b`, "ünï", "tab\there"}
	name := func() string { return names[rng.Intn(len(names))] }
	i64 := func() int64 { return rng.Int63() - rng.Int63() }
	for i := 0; i < 3000; i++ {
		checkFixed(t, ArbiterStats{
			Now: float(), Completed: rng.Int() - rng.Int(), InFlight: rng.Intn(1 << 20), Queued: rng.Intn(100),
			Rejected: i64(), Failed: i64(), AdmittedWait: i64(), AdmittedDeg: i64(), AdmittedReopt: i64(),
			Replanned: i64(), Degraded: i64(), DegradeStalls: i64(), Recals: i64(), FreeContainers: rng.Intn(200),
			HeldGB: float(), ReoptFull: i64(), ReoptExact: i64(), ReoptPatched: i64(),
		}, appendArbiterStats)
		st := cloud.Stats{
			Now: float(), Completed: rng.Int(), InFlight: rng.Intn(64), Queued: rng.Intn(64), Submitted: i64(),
			Rejected: i64(), Lost: i64(), Preemptions: i64(), StormPreemptions: i64(), OOMAborts: i64(),
			Stragglers: i64(), RecoveredReopt: i64(), RecoveredOnDem: i64(), RecoveredDegrade: i64(),
			DegradeStalls: i64(), ScaleUps: i64(), ScaleDowns: i64(), Capacity: rng.Intn(1000), Free: rng.Intn(1000),
			SpendUSD: units.USD(float()),
		}
		if n := rng.Intn(4) - 1; n >= 0 { // -1: nil
			st.Classes = make([]cloud.ClassStats, n)
			for j := range st.Classes {
				st.Classes[j] = cloud.ClassStats{Name: name(), Tier: name(), Capacity: rng.Intn(100), Free: rng.Intn(100),
					InUse: rng.Intn(100), Pending: rng.Intn(10) - 1, SpendUSD: units.USD(float())}
			}
		}
		if n := rng.Intn(5) - 1; n >= 0 {
			st.Tenants = make([]cloud.TenantStats, n)
			for j := range st.Tenants {
				st.Tenants[j] = cloud.TenantStats{Name: name(), SpentUSD: units.USD(float())}
			}
		}
		checkFixed(t, st, appendCloudStats)
	}
	nan := cloud.Stats{SpendUSD: units.USD(math.NaN())}
	w := httptest.NewRecorder()
	writeFixed(w, nan, appendCloudStats)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("NaN spend answered %d %q, want WriteResult's 500", w.Code, w.Body)
	}
}
