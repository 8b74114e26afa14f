package arbiter_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"raqo/internal/arbiter"
	"raqo/internal/cloud"
	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/scheduler"
)

// daysWorkload stretches the seeded arrival stream across more than a
// virtual day, so the history store accumulates day-scale rollups without
// a single wall-clock read.
func daysWorkload() cloud.TraceConfig {
	wl := testWorkload()
	wl.Arrivals = 300
	wl.MeanIntervalSeconds = 600 // ~50 virtual hours of arrivals
	return wl
}

// runHistoryWorkload drives the days-long workload through an arbiter
// wired to a history store at dir, returning the long-horizon stats at
// the virtual end time and the store's shape.
func runHistoryWorkload(t *testing.T, dir string) ([]feedback.LongHorizonStat, history.Stats) {
	t.Helper()
	models, _ := testFixtures(t)
	st, err := history.Open(dir, history.Config{SegmentMaxBytes: 64 << 10, RawRetention: 6 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	det := feedback.NewDetector(feedback.DriftConfig{})
	det.SetRecorder(st)
	det.SetHistory(st, feedback.LongHorizonConfig{MinRecent: 4, MinBaseline: 16})
	rec := feedback.NewRecalibrator(feedback.NewStore(1024, nil), det, models)

	cfg := testConfig(t)
	cfg.Feedback = &feedback.Observer{Recal: rec}
	cfg.History = st
	a, err := arbiter.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(arrivals(t, daysWorkload(), scheduler.Reoptimize)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	stats, err := det.LongHorizonStats(int64(a.Now()))
	if err != nil {
		t.Fatal(err)
	}
	return stats, st.Stats()
}

// dirBytes maps each file name in dir to its contents.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// TestHistoryDeterministicAcrossRuns is the long-horizon bar: a seeded
// days-long virtual workload produces byte-identical history files and
// identical drift stats on repeat runs.
func TestHistoryDeterministicAcrossRuns(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	statsA, shapeA := runHistoryWorkload(t, dirA)
	statsB, shapeB := runHistoryWorkload(t, dirB)

	if shapeA.CommittedTotal == 0 || shapeA.Series == 0 {
		t.Fatalf("workload recorded no history: %+v", shapeA)
	}
	if shapeA.HighWater < 24*3600 {
		t.Fatalf("workload did not span a virtual day: high water %d", shapeA.HighWater)
	}
	if len(statsA) == 0 {
		t.Fatal("no long-horizon classes")
	}
	if !reflect.DeepEqual(statsA, statsB) || shapeA != shapeB {
		t.Fatalf("repeat run diverged:\n%+v\n%+v", statsA, statsB)
	}

	bytesA, bytesB := dirBytes(t, dirA), dirBytes(t, dirB)
	if len(bytesA) == 0 {
		t.Fatal("no history files written")
	}
	for name, data := range bytesA {
		if !bytes.Equal(data, bytesB[name]) {
			t.Fatalf("file %s differs between repeat runs", name)
		}
	}
	for name := range bytesB {
		if _, ok := bytesA[name]; !ok {
			t.Fatalf("file %s only in second run", name)
		}
	}

	// The recorded series are queryable end to end: per-tenant queue and
	// exec times plus the detector's error series.
	st, err := history.Open(dirA, history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	names := st.SeriesNames()
	wantSome := map[string]bool{
		"arbiter.queue_seconds.etl":  false,
		"arbiter.exec_seconds.etl":   false,
		"feedback.relerr.hive.query": false,
	}
	for _, n := range names {
		if _, ok := wantSome[n]; ok {
			wantSome[n] = true
		}
	}
	for n, seen := range wantSome {
		if !seen {
			t.Fatalf("series %s missing from %v", n, names)
		}
	}
	rows, err := st.Query("arbiter.exec_seconds.etl", 0, shapeA.HighWater+3600, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("exec-seconds series has only %d hourly buckets", len(rows))
	}
}
