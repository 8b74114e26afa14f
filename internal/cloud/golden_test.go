package cloud_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"raqo/internal/cloud"
)

// update rewrites testdata/golden_outcomes.txt from the current tree. The
// committed file was last regenerated when the market took the shared
// cluster's admission order (submitted plan first, then the policy, with
// Reoptimize heads re-planned after the tenant scan). Regenerate only for
// a change that is meant to alter admission outcomes.
var update = flag.Bool("update", false, "rewrite testdata/golden_outcomes.txt")

const goldenPath = "testdata/golden_outcomes.txt"

// bitsString renders v field by field with every float as its IEEE-754
// bit pattern, so the text pins values exactly and diffs line by line.
func bitsString(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		return fmt.Sprintf("%#016x", math.Float64bits(v.Float()))
	case reflect.Struct:
		var parts []string
		for i := 0; i < v.NumField(); i++ {
			parts = append(parts, v.Type().Field(i).Name+":"+bitsString(v.Field(i)))
		}
		return "{" + strings.Join(parts, " ") + "}"
	case reflect.Slice:
		var parts []string
		for i := 0; i < v.Len(); i++ {
			parts = append(parts, bitsString(v.Index(i)))
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return fmt.Sprint(v.Interface())
}

// goldenOutcomes replays three seeded traces — a static fault-free
// market, a faulty one (spot interruption, stragglers, OOM, a storm) under
// each recovery policy, and the faulty elastic market under the
// autoscaler — and renders every Completed() stream with the final Stats
// and scale events.
func goldenOutcomes(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	section := func(name string, cfg cloud.Config, trace cloud.TraceConfig) {
		a, err := cloud.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arrivals, err := cloud.GenerateTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Run(arrivals); err != nil {
			t.Fatal(err)
		}
		if err := a.Drain(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", name)
		for _, o := range a.Completed() {
			fmt.Fprintln(&b, bitsString(reflect.ValueOf(o)))
		}
		fmt.Fprintln(&b, "stats", bitsString(reflect.ValueOf(a.Stats())))
		fmt.Fprintln(&b, "scale", bitsString(reflect.ValueOf(a.ScaleEvents())))
	}
	section("static", testConfig(t, testMarket(false)), testTrace(cloud.Steady, 40, cloud.RecoverReoptimize))
	for _, rec := range []cloud.Recovery{cloud.RecoverReoptimize, cloud.RecoverOnDemand, cloud.RecoverDegrade} {
		section("spot+faults/"+rec.String(), faultyConfig(t, false), testTrace(cloud.Bursty, 40, rec))
	}
	cfg := faultyConfig(t, true)
	cfg.Autoscaler = cloud.AutoscalerConfig{Enabled: true}
	section("autoscaled+faults", cfg, testTrace(cloud.Diurnal, 40, cloud.RecoverReoptimize))
	return b.String()
}

// TestGoldenOutcomes holds every outcome stream equal, bit for bit, to the
// committed file.
func TestGoldenOutcomes(t *testing.T) {
	got := goldenOutcomes(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden file has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d drifted:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
