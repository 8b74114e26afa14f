package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"raqo"
	"raqo/internal/cloud"
	"raqo/internal/plan"
	"raqo/internal/server"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote; fn must succeed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	out, err := runStdout(t, fn)
	if err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return out
}

// runStdout runs fn with os.Stdout redirected to a pipe and returns what
// it wrote and its error.
func runStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	ferr := fn()
	w.Close()
	out := <-done
	os.Stdout = orig
	return out, ferr
}

// TestOptimizeJSONRoundTrips runs `raqo optimize -json` and proves the
// CLI emits the server wire format: the output decodes, and the plan
// reconstructs against the schema and re-encodes byte-identically.
func TestOptimizeJSONRoundTrips(t *testing.T) {
	out := captureStdout(t, func() error {
		return optimizeCmd([]string{"-query", "Q3", "-json", "-trained=false"})
	})
	var wire struct {
		Query   string          `json:"query"`
		Mode    string          `json:"mode"`
		Planner string          `json:"planner"`
		Plan    json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(out, &wire); err != nil {
		t.Fatalf("decode CLI output: %v\n%s", err, out)
	}
	if wire.Query != "Q3" || wire.Mode != "joint" || wire.Planner != "selinger" {
		t.Fatalf("unexpected header fields: %+v", wire)
	}
	node, err := plan.Decode(raqo.TPCH(100), wire.Plan)
	if err != nil {
		t.Fatalf("plan.Decode: %v", err)
	}
	reencoded, err := json.Marshal(node)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, wire.Plan); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if compact.String() != string(reencoded) {
		t.Fatalf("CLI plan JSON did not round-trip:\n got %s\nwant %s", reencoded, compact.String())
	}
}

// TestBatchTrimsQueryNames runs `raqo batch` with blanks around the query
// names: the text table's rows, like the JSON, name the trimmed query.
func TestBatchTrimsQueryNames(t *testing.T) {
	out := captureStdout(t, func() error {
		return batchCmd([]string{"-queries", "Q12, Q3"})
	})
	lines := strings.Split(string(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("short batch output:\n%s", out)
	}
	for i, want := range []string{"Q12 ", "Q3 "} {
		if row := lines[1+i]; !strings.HasPrefix(row, want) {
			t.Errorf("row %d = %q, want it to start with %q", i, row, want)
		}
	}
}

// TestOptimizePriceJSONNamesPlanner runs `raqo optimize -mode price
// -json`: price mode always runs the randomized planner, so the wire
// answer names it even under the default -planner selinger.
func TestOptimizePriceJSONNamesPlanner(t *testing.T) {
	out := captureStdout(t, func() error {
		return optimizeCmd([]string{"-query", "Q12", "-mode", "price", "-budget", "1", "-json", "-trained=false"})
	})
	var wire struct {
		Mode    string `json:"mode"`
		Planner string `json:"planner"`
	}
	if err := json.Unmarshal(out, &wire); err != nil {
		t.Fatalf("decode CLI output: %v\n%s", err, out)
	}
	if wire.Mode != "price" || wire.Planner != "fast-randomized" {
		t.Fatalf("mode %q planner %q, want price fast-randomized", wire.Mode, wire.Planner)
	}
}

// elapsed matches the one member a served answer and the CLI's may differ
// in: the planner's wall time.
var elapsed = regexp.MustCompile(`"elapsedMicros": \d+`)

// serve answers one request on a fresh server.New built with opts, as the
// first request a `raqo serve` with the same -planner and -trained gets.
func serve(t *testing.T, opts raqo.Options, method, path, body string) (int, []byte) {
	t.Helper()
	s, err := server.New(server.Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// runsOnEngine decodes a wire plan and executes it on the engine the
// arbiters run plans on, returning the engine's error.
func runsOnEngine(t *testing.T, what string, wirePlan json.RawMessage) error {
	t.Helper()
	p, err := plan.Decode(raqo.TPCH(100), wirePlan)
	if err != nil {
		t.Fatalf("%s: plan.Decode: %v", what, err)
	}
	if _, err := cloud.Engine().Execute(p, raqo.DefaultPricing()); err != nil {
		return fmt.Errorf("%s does not run: %w", p.SignatureWithResources(), err)
	}
	return nil
}

// batchWire is the part of a /v1/batch body the tests read.
type batchWire struct {
	Results []struct {
		TimeSeconds float64         `json:"timeSeconds"`
		Plan        json.RawMessage `json:"plan"`
	} `json:"results"`
	Cache json.RawMessage   `json:"cache"`
	Memo  *server.MemoStats `json:"memo"`
}

// batchServed runs `raqo batch -queries queries -json`, requires the body
// POST /v1/batch answers on a fresh default server but elapsedMicros, and
// decodes it.
func batchServed(t *testing.T, queries string) batchWire {
	t.Helper()
	served, err := planOptions("selinger", true)
	if err != nil {
		t.Fatal(err)
	}
	cli := captureStdout(t, func() error { return batchCmd([]string{"-queries", queries, "-json"}) })
	code, body := serve(t, served, "POST", "/v1/batch", `{"queries":["`+strings.ReplaceAll(queries, ",", `","`)+`"]}`)
	if got, want := elapsed.ReplaceAll(cli, nil), elapsed.ReplaceAll(body, nil); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("raqo batch -queries %s -json printed\n%s\nthe server answers HTTP %d\n%s", queries, got, code, want)
	}
	var wire batchWire
	if err := json.Unmarshal(cli, &wire); err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestBatchJSONMatchesServerShape runs `raqo batch -json` with a repeated
// query: the body is /v1/batch's, the repeat plans to the same cost on
// cost-memo hits, and no resource-plan cache is reported.
func TestBatchJSONMatchesServerShape(t *testing.T) {
	wire := batchServed(t, "Q12,Q3,Q12")
	if len(wire.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(wire.Results))
	}
	if wire.Results[0].TimeSeconds != wire.Results[2].TimeSeconds {
		t.Errorf("repeated query planned to different costs")
	}
	if wire.Memo == nil || wire.Memo.Hits == 0 {
		t.Errorf("missing or empty memo stats: %+v", wire.Memo)
	}
	if wire.Cache != nil {
		t.Errorf("batch reports a resource-plan cache: %s", wire.Cache)
	}
}

// TestCLIPlansWhatServerServes holds every planning command to the
// server's optimizer: `raqo optimize -json` prints the body POST
// /v1/optimize answers on a server built with the same -planner and
// -trained, for every query, mode and both model sets (a 422 there is an
// error here); `raqo batch -json` prints POST /v1/batch's body, memo stats
// included; `raqo simulate` runs the plan GET /v1/explain serves; and every
// plan the three print runs on cloud.Engine(). The one exception is
// logged, not forgiven silently: in fixed and budget mode a plan may chain
// broadcast joins whose hash sides together overflow the memory budget, a
// defect of the serving optimizer's broadcast pruning (ROADMAP item 1);
// any other engine failure, and any in joint or price mode, is an error.
func TestCLIPlansWhatServerServes(t *testing.T) {
	modes := []struct {
		flags []string
		body  string
	}{
		{[]string{"-mode", "joint"}, `"mode":"joint"`},
		{[]string{"-mode", "fixed", "-containers", "10", "-gb", "3"}, `"mode":"fixed","containers":10,"containerGB":3`},
		{[]string{"-mode", "budget", "-containers", "20", "-gb", "4"}, `"mode":"budget","containers":20,"containerGB":4`},
		{[]string{"-mode", "price", "-budget", "1"}, `"mode":"price","budgetDollars":1`},
	}
	errs := 0
	for _, planner := range []string{"selinger", "randomized"} {
		for _, trained := range []bool{true, false} {
			opts, err := planOptions(planner, trained)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{"Q12", "Q3", "Q2", "All"} {
				for _, m := range modes {
					args := append([]string{"-query", q, "-planner", planner, "-trained=" + strconv.FormatBool(trained), "-json"}, m.flags...)
					what := "raqo optimize " + strings.Join(args, " ")
					cli, cliErr := runStdout(t, func() error { return optimizeCmd(args) })
					code, body := serve(t, opts, "POST", "/v1/optimize", `{"query":"`+q+`",`+m.body+`}`)
					switch {
					case code == http.StatusUnprocessableEntity && cliErr != nil:
						errs++
						continue
					case code != http.StatusOK || cliErr != nil:
						t.Errorf("%s: exit error %v, server HTTP %d %s", what, cliErr, code, body)
						continue
					}
					if got, want := elapsed.ReplaceAll(cli, nil), elapsed.ReplaceAll(body, nil); !bytes.Equal(got, want) {
						t.Errorf("%s printed\n%s\nthe server answers\n%s", what, got, want)
						continue
					}
					var wire struct {
						Plan json.RawMessage `json:"plan"`
					}
					if err := json.Unmarshal(cli, &wire); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					err := runsOnEngine(t, what, wire.Plan)
					switch {
					case err == nil:
					case (m.flags[1] == "fixed" || m.flags[1] == "budget") && strings.Contains(err.Error(), "chained)"):
						t.Logf("%s: the chained-broadcast defect: %v", what, err)
					default:
						t.Errorf("%s: %v", what, err)
					}
				}
			}
		}
	}
	t.Logf("%d optimize cases are errors on both sides", errs)

	for i, r := range batchServed(t, "Q12,Q3,Q2,All").Results {
		if err := runsOnEngine(t, "batch", r.Plan); err != nil {
			t.Errorf("raqo batch, result %d: %v", i, err)
		}
	}

	served, err := planOptions("selinger", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"Q12", "Q3", "Q2", "All"} {
		out := string(captureStdout(t, func() error { return simulateCmd([]string{"-query", q}) }))
		code, body := serve(t, served, "GET", "/v1/explain/"+q, "")
		var explain struct {
			PlanTree string          `json:"planTree"`
			Plan     json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(body, &explain); code != http.StatusOK || err != nil {
			t.Fatalf("GET /v1/explain/%s: HTTP %d (%v) %s", q, code, err, body)
		}
		if !strings.Contains(out, "\n\n"+explain.PlanTree+"\n") || !strings.Contains(out, "simulated execution: ") {
			t.Errorf("raqo simulate -query %s printed\n%s\nnot the served plan\n%s", q, out, explain.PlanTree)
		}
		if err := runsOnEngine(t, "simulate", explain.Plan); err != nil {
			t.Errorf("raqo simulate -query %s: %v", q, err)
		}
	}
}

// TestRobustRejectsUnknownObjective: an objective other than worst-case
// and average is an error naming both, as an unknown -planner is.
func TestRobustRejectsUnknownObjective(t *testing.T) {
	out, err := runStdout(t, func() error { return robustCmd([]string{"-query", "Q12", "-objective", "wrost"}) })
	if err == nil || !strings.Contains(err.Error(), "worst-case") || !strings.Contains(err.Error(), "average") {
		t.Fatalf("-objective wrost: error %v, printed %q; want an error naming worst-case and average", err, out)
	}
	for _, objective := range []string{"worst-case", "average"} {
		out := captureStdout(t, func() error { return robustCmd([]string{"-query", "Q12", "-objective", objective}) })
		if !strings.HasPrefix(string(out), "robust ("+objective+") plan") {
			t.Errorf("-objective %s printed %q", objective, out)
		}
	}
}
