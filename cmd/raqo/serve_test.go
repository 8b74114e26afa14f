package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"raqo/internal/feedback"
	"raqo/internal/workload"

	"raqo"
)

// TestParseServeFlagsAdmission pins the admission knobs to their flags:
// -max-inflight, -queue-depth and -queue-wait land verbatim in the server
// config instead of being hard-coded serving defaults.
func TestParseServeFlagsAdmission(t *testing.T) {
	st, err := parseServeFlags([]string{
		"-max-inflight", "3", "-queue-depth", "7", "-queue-wait", "250ms",
		"-trained=false",
	})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.cfg.MaxInFlight != 3 {
		t.Errorf("MaxInFlight = %d, want 3", st.cfg.MaxInFlight)
	}
	if st.cfg.MaxQueue != 7 {
		t.Errorf("MaxQueue = %d, want 7", st.cfg.MaxQueue)
	}
	if st.cfg.QueueTimeout != 250*time.Millisecond {
		t.Errorf("QueueTimeout = %v, want 250ms", st.cfg.QueueTimeout)
	}
}

// TestParseServeFlagsCloud maps the priced-pool flags onto the cloud
// arbiter config.
func TestParseServeFlagsCloud(t *testing.T) {
	st, err := parseServeFlags([]string{
		"-cloud-seed", "7", "-cloud-ondemand", "6", "-cloud-spot", "18",
		"-cloud-spot-discount", "0.5", "-cloud-autoscale",
		"-trained=false",
	})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.cfg.CloudSeed != 7 {
		t.Errorf("CloudSeed = %d, want 7", st.cfg.CloudSeed)
	}
	if st.cfg.CloudOnDemand != 6 || st.cfg.CloudSpot != 18 {
		t.Errorf("market = %d on-demand / %d spot, want 6/18", st.cfg.CloudOnDemand, st.cfg.CloudSpot)
	}
	if st.cfg.CloudSpotDiscount != 0.5 {
		t.Errorf("CloudSpotDiscount = %g, want 0.5", st.cfg.CloudSpotDiscount)
	}
	if !st.cfg.CloudAutoscale {
		t.Error("CloudAutoscale not set")
	}
}

// TestParseServeFlagsFeedback maps the feedback-loop flags onto the
// journal, store, drift and recalibration config.
func TestParseServeFlagsFeedback(t *testing.T) {
	st, err := parseServeFlags([]string{
		"-journal", "/tmp/j.jsonl", "-feedback-capacity", "128",
		"-drift-threshold", "0.3", "-drift-quantile", "0.9",
		"-drift-window", "32", "-drift-min-samples", "4",
		"-recal-interval", "5s", "-trained=false",
	})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.cfg.JournalPath != "/tmp/j.jsonl" {
		t.Errorf("JournalPath = %q", st.cfg.JournalPath)
	}
	if st.cfg.FeedbackCapacity != 128 {
		t.Errorf("FeedbackCapacity = %d, want 128", st.cfg.FeedbackCapacity)
	}
	want := feedback.DriftConfig{Threshold: 0.3, Quantile: 0.9, Window: 32, MinSamples: 4}
	if st.cfg.Drift != want {
		t.Errorf("Drift = %+v, want %+v", st.cfg.Drift, want)
	}
	if st.cfg.RecalInterval != 5*time.Second {
		t.Errorf("RecalInterval = %v, want 5s", st.cfg.RecalInterval)
	}
}

func TestParseServeFlagsRejectsUnknownPlanner(t *testing.T) {
	if _, err := parseServeFlags([]string{"-planner", "psychic"}); err == nil {
		t.Fatal("unknown planner accepted")
	}
}

// TestCalibrateCmdReducesError writes a journal of accurate observations
// (simulator ground truth) and replays it with the paper-coefficient seed:
// the reported error must drop across recalibration, and replaying the
// same journal twice must print identical numbers (determinism). The
// journal ends in a line a crash cut short, which the replay must skip.
func TestCalibrateCmdReducesError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	grid := workload.DefaultProfileGrid(raqo.Hive())[:60]
	obs := feedback.SyntheticObservations("hive", raqo.PaperModels(), grid)
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create journal: %v", err)
	}
	enc := json.NewEncoder(f)
	for _, o := range obs {
		if err := enc.Encode(o); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if _, err := f.WriteString(`{"signature":"torn","engine":"hi`); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	run := func() string {
		return string(captureStdout(t, func() error {
			return calibrateCmd([]string{"-journal", path, "-trained=false"})
		}))
	}
	out := run()
	re := regexp.MustCompile(`mean abs rel error: ([0-9.]+) before -> ([0-9.]+) after`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("calibrate output missing error line:\n%s", out)
	}
	before, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parse before: %v", err)
	}
	after, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		t.Fatalf("parse after: %v", err)
	}
	if after >= before {
		t.Fatalf("error did not drop: %g -> %g\n%s", before, after, out)
	}
	if !strings.Contains(out, "version 2") {
		t.Errorf("calibrate output missing recalibrated version:\n%s", out)
	}
	if !strings.Contains(out, strconv.Itoa(len(obs))+" observations") {
		t.Errorf("calibrate did not replay the %d whole lines:\n%s", len(obs), out)
	}

	if again := run(); again != out {
		t.Fatalf("replaying the same journal printed different output:\n%s\nvs\n%s", out, again)
	}
}

func TestCalibrateCmdRequiresJournal(t *testing.T) {
	if err := calibrateCmd(nil); err == nil {
		t.Fatal("calibrate without -journal succeeded")
	}
}

// TestParseServeFlagsArbiterAndPprof maps the workload-arbiter and
// profiling flags; both default off/zero so plain `raqo serve` is
// unchanged.
func TestParseServeFlagsArbiterAndPprof(t *testing.T) {
	st, err := parseServeFlags([]string{"-trained=false"})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.pprofAddr != "" {
		t.Errorf("pprof should default off, got %q", st.pprofAddr)
	}
	if st.cfg.ArbiterCapacity != 0 {
		t.Errorf("ArbiterCapacity default = %d, want 0 (server selects 100)", st.cfg.ArbiterCapacity)
	}
	st, err = parseServeFlags([]string{
		"-pprof", "127.0.0.1:6060", "-arbiter-capacity", "40", "-trained=false",
	})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.pprofAddr != "127.0.0.1:6060" {
		t.Errorf("pprofAddr = %q", st.pprofAddr)
	}
	if st.cfg.ArbiterCapacity != 40 {
		t.Errorf("ArbiterCapacity = %d, want 40", st.cfg.ArbiterCapacity)
	}
	// The pprof handler serves the index without touching the API mux.
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rw := httptest.NewRecorder()
	pprofHandler().ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Errorf("pprof index status = %d", rw.Code)
	}
}

// TestParseServeFlagsFleet maps the fleet membership flags: -peers and
// -node-id build a normalized fleet.Config, and the flags default to
// fleet-off so plain `raqo serve` is unchanged.
func TestParseServeFlagsFleet(t *testing.T) {
	st, err := parseServeFlags([]string{"-trained=false"})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.fleet.NodeID != "" || len(st.fleet.Peers) != 0 {
		t.Errorf("fleet should default off, got %+v", st.fleet)
	}

	st, err = parseServeFlags([]string{
		"-node-id", "127.0.0.1:7001",
		"-peers", "127.0.0.1:7002, 127.0.0.1:7001 ,127.0.0.1:7003",
		"-fleet-vnodes", "16", "-trained=false",
	})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.fleet.NodeID != "127.0.0.1:7001" {
		t.Errorf("NodeID = %q", st.fleet.NodeID)
	}
	// The self entry is dropped and whitespace trimmed.
	if len(st.fleet.Peers) != 2 || st.fleet.Peers[0] != "127.0.0.1:7002" || st.fleet.Peers[1] != "127.0.0.1:7003" {
		t.Errorf("Peers = %v, want the two non-self addresses", st.fleet.Peers)
	}
	if st.fleet.VNodes != 16 {
		t.Errorf("VNodes = %d, want 16", st.fleet.VNodes)
	}

	// A node may advertise itself with no peers: a fleet of one.
	st, err = parseServeFlags([]string{"-node-id", "127.0.0.1:7001", "-trained=false"})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.fleet.NodeID != "127.0.0.1:7001" || len(st.fleet.Peers) != 0 {
		t.Errorf("single-node fleet = %+v", st.fleet)
	}
}

// TestParseServeFlagsFleetValidation pins the rejection cases: peers
// without an identity, malformed or duplicate addresses, and degenerate
// ring weights.
func TestParseServeFlagsFleetValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"peers without node-id", []string{"-peers", "127.0.0.1:7002"}},
		{"bad node-id", []string{"-node-id", "no-port", "-peers", "127.0.0.1:7002"}},
		{"peer without port", []string{"-node-id", "127.0.0.1:7001", "-peers", "localhost"}},
		{"peer without host", []string{"-node-id", "127.0.0.1:7001", "-peers", ":7002"}},
		{"peer port out of range", []string{"-node-id", "127.0.0.1:7001", "-peers", "127.0.0.1:70000"}},
		{"duplicate peers", []string{"-node-id", "127.0.0.1:7001", "-peers", "127.0.0.1:7002,127.0.0.1:7002"}},
		{"zero vnodes", []string{"-node-id", "127.0.0.1:7001", "-fleet-vnodes", "0"}},
	}
	for _, tc := range cases {
		args := append(tc.args, "-trained=false")
		if _, err := parseServeFlags(args); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
