package feedback

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"raqo/internal/history"
)

func obsAt(engine string, at int64, relErr float64) Observation {
	return Observation{
		Signature:        fmt.Sprintf("sig-%d", at),
		Engine:           engine,
		PredictedSeconds: 10 * (1 + relErr),
		ObservedSeconds:  10,
		ObservedAt:       at,
	}
}

func TestJournalRotationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournalConfig(path, JournalConfig{MaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := j.Append(obsAt("hive", int64(1000+i), 0.1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rotated, err := filepath.Glob(path + ".*")
	if err != nil {
		t.Fatal(err)
	}
	if len(rotated) < 2 {
		t.Fatalf("expected multiple rotated files, got %v", rotated)
	}
	// Replay must cross every rotated file plus the active one, in the
	// exact append order.
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("replayed %d observations, want %d", len(got), n)
	}
	for i, o := range got {
		if o.ObservedAt != int64(1000+i) {
			t.Fatalf("observation %d out of order: ObservedAt=%d", i, o.ObservedAt)
		}
	}

	// Reopening appends after the existing rotations, not over them.
	j, err = OpenJournalConfig(path, JournalConfig{MaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i < 2*n; i++ {
		if err := j.Append(obsAt("hive", int64(1000+i), 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*n {
		t.Fatalf("replayed %d observations after reopen, want %d", len(got), 2*n)
	}
	for i, o := range got {
		if o.ObservedAt != int64(1000+i) {
			t.Fatalf("observation %d out of order after reopen: ObservedAt=%d", i, o.ObservedAt)
		}
	}
}

func TestJournalRotationPrunesOldest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalConfig(path, JournalConfig{MaxBytes: 512, MaxFiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if err := j.Append(obsAt("hive", int64(1000+i), 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rotated, err := filepath.Glob(path + ".*")
	if err != nil {
		t.Fatal(err)
	}
	if len(rotated) != 2 {
		t.Fatalf("kept %d rotated files, want 2: %v", len(rotated), rotated)
	}
	// The survivors are the newest rotations plus the active file, so the
	// replay is a contiguous suffix of the appends.
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= 80 {
		t.Fatalf("pruned replay has %d observations", len(got))
	}
	first := got[0].ObservedAt
	for i, o := range got {
		if o.ObservedAt != first+int64(i) {
			t.Fatalf("replay not contiguous at %d: ObservedAt=%d", i, o.ObservedAt)
		}
	}
	if last := got[len(got)-1].ObservedAt; last != 1079 {
		t.Fatalf("replay does not end at the newest append: %d", last)
	}
}

// TestJournalRotationFailureDegrades: a rotation that fails mid-way (here
// the prune step hits a non-empty directory squatting on a rotated slot)
// must not leave the journal permanently closed — the failing Append
// errors, but later Appends keep journaling into a reopened file.
func TestJournalRotationFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	if err := os.MkdirAll(path+".1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path+".1", "squatter"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournalConfig(path, JournalConfig{MaxBytes: 1, MaxFiles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(obsAt("hive", 1000, 0.1)); err != nil {
		t.Fatalf("first append (no rotation yet): %v", err)
	}
	if err := j.Append(obsAt("hive", 1001, 0.1)); err == nil {
		t.Fatal("rotation across the squatted slot should have failed")
	}
	// Degraded, not dead: the journal reopened and keeps accepting.
	if err := j.Append(obsAt("hive", 1002, 0.1)); err != nil {
		t.Fatalf("append after failed rotation: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The pre-rotation and post-failure observations are both durable: one
	// in the renamed rotation, one in the reopened active file.
	if err := os.RemoveAll(path + ".1"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ObservedAt != 1000 || got[1].ObservedAt != 1002 {
		t.Fatalf("replay after degraded rotation: %+v", got)
	}
}

func TestLongHorizonDriftAgainstHistory(t *testing.T) {
	st, err := history.Open(t.TempDir(), history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	d := NewDetector(DriftConfig{})
	d.SetRecorder(st)
	d.SetHistory(st, LongHorizonConfig{})

	// A day of healthy baseline (5% error) followed by an hour at 60%:
	// exactly the slow-burn regime the windowed detector is blind to once
	// its short window fills with the new normal.
	const now = int64(2_000_000_000)
	dayStart := now - 25*3600
	for ts := dayStart; ts < now-3600; ts += 60 {
		d.Observe(obsAt("hive", ts, 0.05))
	}
	for ts := now - 3600; ts < now; ts += 20 {
		d.Observe(obsAt("hive", ts, 0.6))
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}

	stats, err := d.LongHorizonStats(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("got %d long-horizon classes, want 1: %+v", len(stats), stats)
	}
	s := stats[0]
	if s.Engine != "hive" || s.Class != "query" {
		t.Fatalf("unexpected class: %+v", s)
	}
	if !s.Drifted {
		t.Fatalf("slow drift not flagged: %+v", s)
	}
	if s.BaselineError > 0.1 || s.RecentError < 0.5 {
		t.Fatalf("quantiles implausible: %+v", s)
	}
	drifted, err := d.LongHorizonDrifted(now)
	if err != nil || !drifted {
		t.Fatalf("LongHorizonDrifted = %v, %v", drifted, err)
	}

	// Long-horizon state survives a detector restart: a fresh detector
	// pointed at the same store sees the same drift (series enumerated
	// from history, not from the in-memory windows).
	d2 := NewDetector(DriftConfig{})
	d2.SetHistory(st, LongHorizonConfig{})
	stats2, err := d2.LongHorizonStats(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2) != 1 || !stats2[0].Drifted {
		t.Fatalf("restarted detector lost long-horizon drift: %+v", stats2)
	}

	// With no history attached the mode is simply off.
	d3 := NewDetector(DriftConfig{})
	if stats, err := d3.LongHorizonStats(now); err != nil || stats != nil {
		t.Fatalf("detached detector: %v, %v", stats, err)
	}
}

func TestLongHorizonNoDriftWhenStable(t *testing.T) {
	st, err := history.Open(t.TempDir(), history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d := NewDetector(DriftConfig{})
	d.SetRecorder(st)
	d.SetHistory(st, LongHorizonConfig{})
	const now = int64(2_000_000_000)
	for ts := now - 25*3600; ts < now; ts += 60 {
		d.Observe(obsAt("spark", ts, 0.05))
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	drifted, err := d.LongHorizonDrifted(now)
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		stats, _ := d.LongHorizonStats(now)
		t.Fatalf("stable workload flagged as drifted: %+v", stats)
	}
}

func TestRelErrSeriesRoundTrip(t *testing.T) {
	name := RelErrSeries("hive", "SMJ")
	engine, class, ok := splitRelErrSeries(name)
	if !ok || engine != "hive" || class != "SMJ" {
		t.Fatalf("split(%q) = %q, %q, %v", name, engine, class, ok)
	}
	for _, bad := range []string{"other.series", RelErrSeriesPrefix, RelErrSeriesPrefix + "noclass"} {
		if _, _, ok := splitRelErrSeries(bad); ok {
			t.Fatalf("split(%q) should fail", bad)
		}
	}
}

func TestObservedAtJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournalConfig(path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(obsAt("hive", 12345, 0.2)); err != nil {
		t.Fatal(err)
	}
	// Old journals have no observedAt field; they must still replay.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"signature":"old","engine":"hive","predictedSeconds":1,"observedSeconds":1,"predictedDollars":0,"observedDollars":0}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ObservedAt != 12345 || got[1].ObservedAt != 0 {
		t.Fatalf("replay: %+v", got)
	}
}
