package arbiter_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"raqo/internal/arbiter"
	"raqo/internal/scheduler"
)

// update rewrites testdata/golden_outcomes.txt from the current tree. The
// committed file was generated on the commit *before* the reuse-layer
// diet (ISSUE 20: the incremental patch path, the submission-plan maps and
// the plan-signature caches deleted), so a plain run proves every outcome
// stream is bit-identical to that commit's. Regenerate only for a change
// that is meant to alter admission outcomes.
var update = flag.Bool("update", false, "rewrite testdata/golden_outcomes.txt")

const goldenPath = "testdata/golden_outcomes.txt"

// goldenSkip are the Stats counters the diet re-labels, left out of the
// pinned text: ReoptExact now also counts submissions after a query's
// first (they were answered by a map in front of the memo), ReoptPatched
// is always zero, and ReoptFallback no longer exists. ReoptFull — the
// from-scratch plans — is pinned.
var goldenSkip = []string{"ReoptExact", "ReoptPatched", "ReoptFallback"}

// bitsString renders v field by field with every float as its IEEE-754
// bit pattern, so the text pins values exactly and diffs line by line.
func bitsString(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		return fmt.Sprintf("%#016x", math.Float64bits(v.Float()))
	case reflect.Struct:
		var parts []string
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; !slices.Contains(goldenSkip, name) {
				parts = append(parts, name+":"+bitsString(v.Field(i)))
			}
		}
		return "{" + strings.Join(parts, " ") + "}"
	}
	return fmt.Sprint(v.Interface())
}

// goldenOutcomes replays the seeded multi-tenant workload under each
// policy, then the single-tenant stream whose skewed models recalibrate
// mid-run (submission plans must follow the model swap), and renders
// every Completed() stream with the final Stats.
func goldenOutcomes(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	section := func(name string, cfg arbiter.Config, arrivals []arbiter.Arrival) {
		a, err := arbiter.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Run(arrivals); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", name)
		for _, o := range a.Completed() {
			fmt.Fprintln(&b, bitsString(reflect.ValueOf(o)))
		}
		fmt.Fprintln(&b, "stats", bitsString(reflect.ValueOf(a.Stats())))
	}
	for _, policy := range []scheduler.Policy{scheduler.Wait, scheduler.Degrade, scheduler.Reoptimize} {
		section(policy.String(), testConfig(t), arrivals(t, testWorkload(), policy))
	}
	cfg, _ := skewedRecalConfig(t)
	section("reoptimize+recalibration", cfg, arrivals(t, singleTenantWorkload(), scheduler.Reoptimize))
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
