package main

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"raqo/internal/cost"
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
		"-cloud-autoscale",
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
		"-recal-interval", "5s",
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
// (simulator ground truth) and replays it with the seed `raqo serve` starts
// with: the reported error must drop across recalibration, and replaying the
// same journal twice must print identical numbers (determinism). The
// journal ends in a line a crash cut short, which the replay must skip.
func TestCalibrateCmdReducesError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	grid := workload.DefaultProfileGrid(raqo.Hive())[:60]
	obs := feedback.SyntheticObservations("hive", cost.PaperModels(), grid)
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
			return calibrateCmd([]string{"-journal", path})
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
	st, err := parseServeFlags(nil)
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
		"-pprof", "127.0.0.1:6060", "-arbiter-capacity", "40",
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
	st, err := parseServeFlags(nil)
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.fleet.NodeID != "" || len(st.fleet.Peers) != 0 {
		t.Errorf("fleet should default off, got %+v", st.fleet)
	}

	st, err = parseServeFlags([]string{
		"-node-id", "127.0.0.1:7001",
		"-peers", "127.0.0.1:7002, 127.0.0.1:7001 ,127.0.0.1:7003",
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

	// A node may advertise itself with no peers: a fleet of one.
	st, err = parseServeFlags([]string{"-node-id", "127.0.0.1:7001"})
	if err != nil {
		t.Fatalf("parseServeFlags: %v", err)
	}
	if st.fleet.NodeID != "127.0.0.1:7001" || len(st.fleet.Peers) != 0 {
		t.Errorf("single-node fleet = %+v", st.fleet)
	}
}

// TestParseServeFlagsFleetValidation pins the rejection cases: peers
// without an identity, and malformed or duplicate addresses.
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
	}
	for _, tc := range cases {
		if _, err := parseServeFlags(tc.args); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestEveryServeFlagReachesSettings walks the serve flag set itself, so a
// new flag is covered without editing the test: each flag is parsed alone
// with a value other than its default (derived from its type), and the
// settings must differ from the defaults'. -planner takes a planner name,
// and -peers needs -node-id, which its baseline carries.
func TestEveryServeFlagReachesSettings(t *testing.T) {
	fs, _ := serveFlags()
	fs.VisitAll(func(f *flag.Flag) {
		var base []string
		var value string
		switch v := f.Value.(flag.Getter).Get().(type) {
		case bool:
			value = strconv.FormatBool(!v)
		case int:
			value = strconv.Itoa(v + 7)
		case int64:
			value = strconv.FormatInt(v+7, 10)
		case float64:
			value = strconv.FormatFloat(v+0.5, 'g', -1, 64)
		case time.Duration:
			value = (v + 3*time.Second).String()
		case string:
			value = "127.0.0.1:7001"
		default:
			t.Fatalf("-%s: no non-default value for a %T flag", f.Name, v)
		}
		switch f.Name {
		case "planner":
			value = "randomized"
		case "peers":
			base, value = append(base, "-node-id=127.0.0.1:7001"), "127.0.0.1:7002"
		}
		want, err := parseServeFlags(base)
		if err != nil {
			t.Fatalf("-%s baseline %v: %v", f.Name, base, err)
		}
		got, err := parseServeFlags(append(base, "-"+f.Name+"="+value))
		if err != nil {
			t.Fatalf("-%s=%s: %v", f.Name, value, err)
		}
		if reflect.DeepEqual(got, want) {
			t.Errorf("-%s=%s (default %q) changed no setting", f.Name, value, f.DefValue)
		}
	})
}
