package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"raqo"
	"raqo/internal/plan"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
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
	if ferr != nil {
		t.Fatalf("command failed: %v", ferr)
	}
	return out
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

// TestBatchJSONMatchesServerShape runs `raqo batch -json` and checks the
// /v1/batch wire shape, including the cache and memo stat blocks.
func TestBatchJSONMatchesServerShape(t *testing.T) {
	out := captureStdout(t, func() error {
		return batchCmd([]string{"-queries", "Q12,Q3,Q12", "-memo", "-cache", "1", "-json"})
	})
	var wire struct {
		Results []struct {
			Query       string  `json:"query"`
			TimeSeconds float64 `json:"timeSeconds"`
		} `json:"results"`
		Cache *struct {
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Memo *struct {
			Hits int64 `json:"hits"`
		} `json:"memo"`
	}
	if err := json.Unmarshal(out, &wire); err != nil {
		t.Fatalf("decode CLI output: %v\n%s", err, out)
	}
	if len(wire.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(wire.Results))
	}
	if wire.Results[0].TimeSeconds != wire.Results[2].TimeSeconds {
		t.Errorf("repeated query planned to different costs")
	}
	if wire.Cache == nil || wire.Cache.Misses == 0 {
		t.Errorf("missing or empty cache stats: %+v", wire.Cache)
	}
	if wire.Memo == nil || wire.Memo.Hits == 0 {
		t.Errorf("missing or empty memo stats: %+v", wire.Memo)
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
