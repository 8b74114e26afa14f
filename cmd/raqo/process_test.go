package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"raqo"
	"raqo/internal/feedback"
	"raqo/internal/fleet"
	"raqo/internal/fleet/harness"
	"raqo/internal/plan"
	"raqo/internal/server"
)

// The process tests drive the real binary through internal/fleet/harness,
// for the contracts no in-process test reaches: the ready line, the drain
// and exit status on SIGTERM, a SIGKILL and a restart on the same files,
// and routing between processes. They skip under -short.

// client opens a connection per request, so none outlives a killed node.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// startProcesses launches opts and stops whatever is still running when
// the test ends.
func startProcesses(t *testing.T, opts harness.Options) *harness.Fleet {
	t.Helper()
	if testing.Short() {
		t.Skip("process test")
	}
	opts.Dir = t.TempDir()
	f, err := harness.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Stop() })
	return f
}

// call sends body to node i (a GET when body is empty), requires a 200 and
// decodes the answer into out when out is non-nil.
func call(t *testing.T, f *harness.Fleet, i int, path, body string, out any) http.Header {
	t.Helper()
	url := "http://" + f.Addr(i) + path
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatalf("%s: %v\n%s", url, err, f.Nodes()[i].Log())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d (%v): %s", url, resp.StatusCode, err, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("%s: decode %s: %v", url, b, err)
		}
	}
	return resp.Header
}

// optimize plans q through node i and returns the node that served it; the
// answer must carry a plan that decodes against the schema.
func optimize(t *testing.T, f *harness.Fleet, i int, q string) string {
	t.Helper()
	var out struct {
		Plan json.RawMessage `json:"plan"`
	}
	h := call(t, f, i, "/v1/optimize", `{"query":"`+q+`"}`, &out)
	if _, err := plan.Decode(raqo.TPCH(100), out.Plan); err != nil {
		t.Fatalf("%s via node %d: %v", q, i, err)
	}
	return h.Get("X-Raqo-Fleet-Node")
}

// waitVersion polls node i's /v1/model until it reports version want or
// later.
func waitVersion(t *testing.T, f *harness.Fleet, i int, want uint64) server.ModelResponse {
	t.Helper()
	var m server.ModelResponse
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if call(t, f, i, "/v1/model", "", &m); m.Version >= want {
			return m
		}
	}
	t.Fatalf("node %d still at model version %d, want %d", i, m.Version, want)
	return m
}

// feedbackBody encodes observations as a /v1/feedback body.
func feedbackBody(t *testing.T, obs ...feedback.Observation) string {
	t.Helper()
	b, err := json.Marshal(server.FeedbackRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// drifting is 24 observations that each ran 4x slower than predicted, with
// operator features varied enough for a full-rank retrain.
func drifting() []feedback.Observation {
	var obs []feedback.Observation
	for i := 1; i <= 24; i++ {
		pred := float64(10 * i)
		obs = append(obs, feedback.Observation{
			Signature: fmt.Sprintf("drift-%d", i), Engine: "hive", PredictedSeconds: pred, ObservedSeconds: 4 * pred,
			Operators: []feedback.OperatorSample{{Algo: "SMJ", SSGB: float64(i), CSGB: float64(i%5 + 2),
				NC: float64(i%7 + 4), PredictedSeconds: pred, ObservedSeconds: 4 * pred}},
		})
	}
	return obs
}

// TestProcessServeDrains: `raqo serve` binds, prints its ready line, plans,
// and exits 0 within 10 s of SIGTERM.
func TestProcessServeDrains(t *testing.T) {
	f := startProcesses(t, harness.Options{Nodes: 1, Args: []string{"-trained=false"}})
	optimize(t, f, 0, "Q12")
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestProcessJournalReplays: the journal a serving process wrote while its
// background loop recalibrated replays under `raqo calibrate` to the model
// version that process reached.
func TestProcessJournalReplays(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	f := startProcesses(t, harness.Options{Nodes: 1, Args: []string{"-trained=false",
		"-journal", journal, "-drift-min-samples", "4", "-recal-interval", "200ms"}})
	obs := drifting()
	var fb server.FeedbackResponse
	if call(t, f, 0, "/v1/feedback", feedbackBody(t, obs...), &fb); fb.Accepted != len(obs) || !fb.Drifted {
		t.Fatalf("feedback answer %+v", fb)
	}
	reached := waitVersion(t, f, 0, 2).Version
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(f.Bin, "calibrate", "-journal", journal, "-trained=false").CombinedOutput()
	if err != nil {
		t.Fatalf("raqo calibrate: %v\n%s", err, out)
	}
	for _, want := range []string{fmt.Sprintf("(%d observations,", len(obs)), fmt.Sprintf("(version %d,", reached)} {
		if !strings.Contains(string(out), want) {
			t.Errorf("calibrate output lacks %q:\n%s", want, out)
		}
	}
}

// TestProcessHistorySurvivesKill: after SIGKILL, a restart on the same
// -history-dir and -journal answers every acknowledged point as before,
// lists every series gathered before the kill, and keeps ingesting.
func TestProcessHistorySurvivesKill(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	f := startProcesses(t, harness.Options{Nodes: 1, Args: []string{"-trained=false",
		"-journal", journal, "-history-dir", filepath.Join(dir, "history"), "-history-interval", "100ms"}})
	t0 := time.Now().Unix()/60*60 - 180
	at := func(i int) feedback.Observation { // relative error |10-40|/40 = 0.75
		return feedback.Observation{Signature: fmt.Sprint("h", i), Engine: "hive",
			PredictedSeconds: 10, ObservedSeconds: 40, ObservedAt: t0 + 60*int64(i)}
	}
	query := fmt.Sprintf("/v1/history?series=feedback.relerr.hive.query&from=%d&to=%d&step=60", t0, t0+240)
	call(t, f, 0, "/v1/feedback", feedbackBody(t, at(0), at(1), at(2)), nil)
	var before server.HistoryResponse
	call(t, f, 0, query, "", &before)
	if len(before.Buckets) != 3 {
		t.Fatalf("want 3 buckets, got %+v", before.Buckets)
	}
	for _, b := range before.Buckets {
		if b.Count != 1 || b.Mean != 0.75 {
			t.Fatalf("bucket %+v, want one point of relative error 0.75", b)
		}
	}
	var gathered server.HistorySeriesResponse
	for deadline := time.Now().Add(10 * time.Second); !slices.Contains(gathered.Series, "raqo_history_points_total"); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the gather loop recorded no telemetry: %v", gathered.Series)
		}
		call(t, f, 0, "/v1/history", "", &gathered)
	}

	if err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(0); err != nil {
		t.Fatal(err)
	}
	var after server.HistoryResponse
	if call(t, f, 0, query, "", &after); !reflect.DeepEqual(after, before) {
		t.Fatalf("after the kill the store answers\n%+v\nwant\n%+v", after, before)
	}
	var listed server.HistorySeriesResponse
	call(t, f, 0, "/v1/history", "", &listed)
	for _, name := range gathered.Series {
		if !slices.Contains(listed.Series, name) {
			t.Errorf("series %s lost in the kill", name)
		}
	}
	call(t, f, 0, "/v1/feedback", feedbackBody(t, at(3)), nil)
	if call(t, f, 0, query, "", &after); len(after.Buckets) != 4 {
		t.Fatalf("after ingesting past the restart: %+v, want 4 buckets", after.Buckets)
	}
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	if replayed, err := feedback.ReadJournal(journal); err != nil || len(replayed) != 4 {
		t.Fatalf("journal replays %d observations (%v), want 4", len(replayed), err)
	}
}

// TestProcessFleet: three processes agree on membership and on the owner
// of each query from every entry node, converge on the model the journal
// owner retrains, answer every query with one member SIGKILLed, take the
// member back on its port, and drain.
func TestProcessFleet(t *testing.T) {
	dir := t.TempDir()
	f := startProcesses(t, harness.Options{
		Nodes: 3,
		Args:  []string{"-trained=false", "-drift-min-samples", "4", "-recal-interval", "200ms"},
		NodeArgs: func(i int) []string {
			return []string{"-journal", filepath.Join(dir, fmt.Sprintf("journal%d.jsonl", i))}
		},
	})
	addrs := f.Addrs()
	for i, a := range addrs {
		var st fleet.StatusResponse
		if call(t, f, i, "/v1/fleet/status", "", &st); st.NodeID != a || len(st.RingNodes) != 3 {
			t.Fatalf("node %s reports %+v", a, st)
		}
	}
	// Each query enters at every node and is served by one member: two of
	// the three requests cross processes.
	queries := []string{"Q12", "Q3", "Q2", "All"}
	for _, q := range queries {
		owner := optimize(t, f, 0, q)
		if !slices.Contains(addrs, owner) {
			t.Fatalf("%s served by %q, not a member", q, owner)
		}
		for i := 1; i < len(addrs); i++ {
			if served := optimize(t, f, i, q); served != owner {
				t.Errorf("%s: served by %q via node %d, by %q via node 0", q, served, i, owner)
			}
		}
	}

	call(t, f, 0, "/v1/feedback", feedbackBody(t, drifting()...), nil)
	for i := range addrs {
		waitVersion(t, f, i, 2)
	}

	if err := f.Kill(2); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		optimize(t, f, 0, q)
	}
	if err := f.Restart(2); err != nil {
		t.Fatal(err)
	}
	optimize(t, f, 2, "Q12")
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
}
