package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary be the speed reference's child, as the
// benchmark binary is: runMeasured starts os.Executable() again.
func TestMain(m *testing.M) {
	if code, was := asReferenceChild(os.Stderr); was {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// The smoke tests run every workload end to end with a tiny op count,
// over loopback only. They assert structure — metric names, zero failed
// ops, well-nested spans, the output contract — and never a timing, so
// they cannot flake on a busy box.

// skipUnlessBindable skips fleet_hop where its two fixed loopback
// addresses cannot be bound — another benchmark process holds them, or the
// host does not route 127.0.71.x — which says nothing about the code.
func skipUnlessBindable(t *testing.T, spec *workloadSpec) {
	t.Helper()
	if spec.name != "fleet_hop" {
		return
	}
	for _, addr := range []string{fleetAddrA, fleetAddrB} {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Skipf("fleet_hop's fixed address is not bindable here: %v", err)
		}
		_ = ln.Close()
	}
}

func TestSmokeMeasured(t *testing.T) {
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			skipUnlessBindable(t, spec)
			r, err := runMeasured(testOptions(t, spec, 1))
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || !r.correct() {
				t.Fatalf("%d of %d ops failed: %s", r.Failed, r.Attempted, r.FirstErr)
			}
			if r.Succeeded != r.Attempted || r.Attempted < r.N {
				t.Errorf("attempted %d, succeeded %d, n %d", r.Attempted, r.Succeeded, r.N)
			}
			if len(r.Metrics) != len(endToEndUnits) {
				t.Errorf("%d metrics, want %d", len(r.Metrics), len(endToEndUnits))
			}
			for _, m := range endToEndUnits {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			if len(r.SetupAllS) != 2 {
				t.Errorf("%d cold builds timed, want 2", len(r.SetupAllS))
			}
			if r.Commit == "" || r.GoVersion == "" || r.GOMAXPROCS < 1 || r.NumCPU < 1 || r.StreamHash == "" || r.LoadEnd == "" && r.LoadStart != "" {
				t.Errorf("provenance incomplete: %+v", r.provenance)
			}
			if s := r.Summary; s == nil || s.Windows != numWindows || len(s.WindowSlow) != numWindows || !(s.Slowness > 0) || len(s.Classes) != len(spec.classes) {
				t.Errorf("summary = %+v", s)
			}
			if len(r.SetupSlow) != len(r.SetupAllS) {
				t.Errorf("%d set-up slowness values for %d builds", len(r.SetupSlow), len(r.SetupAllS))
			}
			checkContractLine(t, r, endToEndUnits)
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			skipUnlessBindable(t, spec)
			o := testOptions(t, spec, 1)
			if spec.name == "plan_scale" {
				o.n, o.warm = planPoolSize, planPoolSize // one connection: a pass is one pool
			}
			o.out = filepath.Join(t.TempDir(), "spans.jsonl")
			r, err := runTraced(o)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || !r.correct() {
				t.Fatalf("%d of %d ops failed: %s", r.Failed, r.Attempted, r.FirstErr)
			}
			if len(r.Metrics) != len(perLayerUnits) {
				t.Errorf("%d metrics, want %d", len(r.Metrics), len(perLayerUnits))
			}
			for _, m := range perLayerUnits {
				if got, ok := r.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("metric %s = %+v (present %v), want unit %s", m.name, got, ok, m.unit)
				}
			}
			// The interaction table's predictions that are counts, not
			// timings: layers a workload bypasses read zero.
			zero := func(names ...string) {
				for _, name := range names {
					if v := r.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %g on %s, predicted 0", name, v, spec.name)
					}
				}
			}
			positive := func(names ...string) {
				for _, name := range names {
					if v := r.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s = %g on %s, predicted > 0", name, v, spec.name)
					}
				}
			}
			switch spec.name {
			case "plan_scale":
				zero("net.self_us", "server.handler_us", "server.self_us", "fleet.hop_self_us", "fleet.forward_ratio")
				positive("core.optimize_us", "resource.plan_calls_per_op", "cost.evals_per_op", "optimizer.selinger_us", "optimizer.randomized_us")
			case "serve_warm":
				zero("resource.plan_calls_per_op", "fleet.hop_self_us", "arbiter.submitwait_us")
				positive("net.self_us", "server.handler_us", "core.optimize_us", "core.memo_hit_ratio")
			case "submit_mix":
				positive("arbiter.submitwait_us", "cloud.submitwait_us")
			case "feedback_rw":
				positive("feedback.feed_us", "history.commit_us", "history.query_us", "feedback.journal_bytes_per_obs", "setup.replay_ms")
			case "fleet_hop":
				zero("fleet.degraded_ratio")
				positive("fleet.hop_self_us", "fleet.forward_ratio", "fleet.hot_hit_ratio", "arbiter.submitwait_us")
			}
			checkContractLine(t, r, perLayerUnits)
			checkSpanFile(t, o.out, r.TraceSpans)
			// A share of the outermost level's time, but not bounded by 1: an
			// inner replay that hit a stall can be clipped by more than the
			// outer one took. Its size is a timing; only its sign is asserted.
			if !(r.TraceClipped >= 0) {
				t.Errorf("clipped share %g is negative", r.TraceClipped)
			}
		})
	}
}

// checkContractLine holds a record's last output line to the driver's
// contract: exactly four keys, every metric of the mode and no other.
func checkContractLine(t *testing.T, r *record, defs []metricDef) {
	t.Helper()
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("contract line has %d keys: %s", len(line), r.contractLine())
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}
	var metrics map[string]metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("contract line carries %d metrics, want %d", len(metrics), len(defs))
	}
	for _, m := range defs {
		if _, ok := metrics[m.name]; !ok {
			t.Errorf("contract line lacks metric %s", m.name)
		}
	}
	if strings.Contains(r.contractLine(), "\n") {
		t.Error("contract line spans lines")
	}
}

// checkSpanFile re-reads the written spans and checks they nest.
func checkSpanFile(t *testing.T, path string, want int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var l spanLog
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		l.spans = append(l.spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(l.spans) != want || want == 0 {
		t.Errorf("span file holds %d spans, record says %d", len(l.spans), want)
	}
	if err := l.wellNested(); err != nil {
		t.Errorf("written spans: %v", err)
	}
}

// BENCHMARK.json at the repository root is the output of -manifest.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(onDisk, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != 5 || len(doc.EndToEnd) != 5 || len(doc.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json names %d workloads, %d end-to-end and %d per-layer metrics",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer))
	}
	seen := map[string]bool{}
	for _, w := range doc.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if seen[m.Name] {
			t.Errorf("name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range doc.PerLayer {
		if seen[m.Name] || len(m.Name) > 64 {
			t.Errorf("per-layer name %q reused or too long", m.Name)
		}
		seen[m.Name] = true
	}
}

// The command-line surface the driver uses: double-dash flags, a numeric
// -trace, and exit codes.
func TestCommandLine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	if code := realMain([]string{"--seconds", "0", "--workload", "serve_warm"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("-seconds 0: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	if code := realMain([]string{"-manifest"}, &out, &errb); code != 0 || !bytes.Equal(out.Bytes(), manifest()) {
		t.Errorf("-manifest: exit %d", code)
	}
}
