package feedback

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"raqo/internal/cost"
	"raqo/internal/plan"
)

// obs builds a valid observation with one SMJ operator sample whose
// features vary with i so a set of them is trainable.
func obs(i int) Observation {
	f := float64(i)
	return Observation{
		Signature:        fmt.Sprintf("sig-%d", i),
		Engine:           "hive",
		PredictedSeconds: 10 + f,
		ObservedSeconds:  20 + f,
		Operators: []OperatorSample{{
			Algo: "SMJ", SSGB: 1 + f, CSGB: 1 + f/2, NC: 10 + f,
			PredictedSeconds: 10 + f, ObservedSeconds: 20 + f,
		}},
	}
}

func TestValidate(t *testing.T) {
	good := obs(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid observation rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Observation)
	}{
		{"missing engine", func(o *Observation) { o.Engine = "" }},
		{"non-positive observed", func(o *Observation) { o.ObservedSeconds = 0 }},
		{"unknown algo", func(o *Observation) { o.Operators[0].Algo = "NLJ" }},
		{"bad features", func(o *Observation) { o.Operators[0].SSGB = -1 }},
		{"bad operator time", func(o *Observation) { o.Operators[0].ObservedSeconds = 0 }},
	}
	for _, c := range cases {
		o := obs(1)
		c.mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestStoreRingWrapsOldestFirst(t *testing.T) {
	s := NewStore(4, nil)
	for i := 0; i < 7; i++ {
		if err := s.AppendBatch([]Observation{obs(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Total() != 7 {
		t.Fatalf("Total = %d, want 7", s.Total())
	}
	snap := s.Snapshot()
	for i, o := range snap {
		want := fmt.Sprintf("sig-%d", i+3) // 0..2 overwritten
		if o.Signature != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, o.Signature, want)
		}
	}
	profs := s.Profiles()
	if len(profs) != 4 {
		t.Fatalf("Profiles = %d, want 4", len(profs))
	}
	if profs[0].Algo != plan.SMJ || profs[0].SS != 4 {
		t.Errorf("profile[0] = %+v", profs[0])
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore(4, nil)
	if err := s.AppendBatch([]Observation{{}}, nil); err == nil {
		t.Fatal("invalid observation accepted")
	}
	if s.Len() != 0 || s.Total() != 0 {
		t.Error("rejected observation counted")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fb.jsonl")
	j, err := OpenJournalConfig(path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(2, j) // ring smaller than the stream: journal keeps all
	for i := 0; i < 5; i++ {
		if err := s.AppendBatch([]Observation{obs(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := j.AppendBatch([]Observation{obs(9)}, nil); err == nil {
		t.Fatal("append after close accepted")
	}

	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d observations, want 5", len(got))
	}
	for i, o := range got {
		if o.Signature != fmt.Sprintf("sig-%d", i) {
			t.Errorf("line %d signature = %s", i, o.Signature)
		}
		if len(o.Operators) != 1 || o.Operators[0].Algo != "SMJ" {
			t.Errorf("line %d operators = %+v", i, o.Operators)
		}
	}

	// Reopening appends rather than truncating.
	j2, err := OpenJournalConfig(path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.AppendBatch([]Observation{obs(5)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("after reopen: %d observations, want 6", len(got))
	}
}

// marshalLines is the journal one json.Marshal per observation writes.
func marshalLines(t *testing.T, obs ...Observation) []byte {
	t.Helper()
	var out []byte
	for _, o := range obs {
		line, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// TestJournalTornTail: bytes after a file's last newline are a write a
// crash cut short. Replay skips them (the offline `raqo calibrate` path
// reads a journal nobody reopened), and opening the journal cuts them off,
// so the next append starts a line of its own instead of completing the
// fragment into a corrupt line in the middle of the file.
func TestJournalTornTail(t *testing.T) {
	whole := marshalLines(t, obs(0), obs(1), obs(2))
	next := marshalLines(t, obs(3))
	cases := []struct {
		name     string
		file     []byte
		replayed int
	}{
		{"clean", whole, 3},
		{"fragment", append(append([]byte(nil), whole...), next[:len(next)/2]...), 3},
		{"fragment longer than a read", append(append([]byte(nil), whole...), bytes.Repeat([]byte("x"), 10_000)...), 3},
		{"nothing but a fragment", next[:len(next)-1], 0},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fb.jsonl")
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := ReadJournal(path)
			if err != nil || len(got) != c.replayed {
				t.Fatalf("replay before reopening: %d observations, err=%v; want %d", len(got), err, c.replayed)
			}
			j, err := OpenJournalConfig(path, JournalConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendBatch([]Observation{obs(3)}, nil); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			want := append(append([]byte(nil), whole[:len(whole)*c.replayed/3]...), next...)
			if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, want) {
				t.Fatalf("after reopen and append the file is\n%s\nwant\n%s", file, want)
			}
			if got, err = ReadJournal(path); err != nil || len(got) != c.replayed+1 {
				t.Fatalf("replay after the append: %d observations, err=%v; want %d", len(got), err, c.replayed+1)
			}
		})
	}
}

// TestJournalBatchRotation: batches leave the files, names and bytes, that
// the same observations appended one at a time leave, wherever in a batch
// the size limit falls, with and without pruning.
func TestJournalBatchRotation(t *testing.T) {
	var stream []Observation
	for i := 0; i < 23; i++ {
		stream = append(stream, obs(i))
	}
	lineLen := int64(len(marshalLines(t, stream[0])))
	files := func(dir string) map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	for _, cfg := range []JournalConfig{
		{MaxBytes: 3*lineLen + lineLen/2},
		{MaxBytes: 3*lineLen + lineLen/2, MaxFiles: 2},
		{MaxBytes: 1}, // every line rotates
		{},
	} {
		write := func(batch int) (map[string]string, int64) {
			dir := t.TempDir()
			j, err := OpenJournalConfig(filepath.Join(dir, "fb.jsonl"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(stream); i += batch {
				if err := j.AppendBatch(stream[i:min(i+batch, len(stream))], nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			return files(dir), j.Writes()
		}
		want, writes1 := write(1)
		if writes1 != int64(len(stream)) {
			t.Fatalf("%+v: %d writes for %d single appends", cfg, writes1, len(stream))
		}
		for _, batch := range []int{2, 5, 8, len(stream)} {
			got, writes := write(batch)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, batches of %d: files\n%v\nwant\n%v", cfg, batch, got, want)
			}
			if batches := int64((len(stream) + batch - 1) / batch); writes < batches || writes > writes1 || (cfg.MaxBytes == 0 && writes != batches) {
				t.Fatalf("%+v, batches of %d: %d writes for %d batches", cfg, batch, writes, batches)
			}
		}
		if cfg.MaxBytes > 0 && len(want) < 2 {
			t.Fatalf("%+v: setup never rotated: %d files", cfg, len(want))
		}
	}
}

func TestReadJournalRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"engine\":\"hive\",\"observedSeconds\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("corrupt journal accepted")
	}
	// An invalid-but-parseable line is also rejected.
	if err := os.WriteFile(path, []byte("{\"engine\":\"\",\"observedSeconds\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("invalid observation in journal accepted")
	}
	if _, err := ReadJournal(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("missing journal accepted")
	}
}

func TestDetectorDriftGating(t *testing.T) {
	d := NewDetector(DriftConfig{Window: 8, Quantile: 0.5, Threshold: 0.5, MinSamples: 4})

	// Accurate predictions: never drifts, regardless of volume.
	for i := 0; i < 10; i++ {
		d.Observe(Observation{Engine: "hive", PredictedSeconds: 100, ObservedSeconds: 100})
	}
	if d.Drifted() {
		t.Fatal("accurate feedback reported drift")
	}

	// Inaccurate predictions on a different engine: drift only after
	// MinSamples.
	for i := 0; i < 3; i++ {
		d.Observe(Observation{Engine: "spark", PredictedSeconds: 300, ObservedSeconds: 100})
	}
	if d.Drifted() {
		t.Fatal("drift before MinSamples")
	}
	d.Observe(Observation{Engine: "spark", PredictedSeconds: 300, ObservedSeconds: 100})
	if !d.Drifted() {
		t.Fatal("no drift after MinSamples of 200% error")
	}

	stats := d.Stats()
	if len(stats) != 2 {
		t.Fatalf("classes = %d, want 2 (hive/query, spark/query): %+v", len(stats), stats)
	}
	// Sorted by (engine, class).
	if stats[0].Engine != "hive" || stats[1].Engine != "spark" {
		t.Errorf("stats not sorted: %+v", stats)
	}
	if stats[0].Drifted || !stats[1].Drifted {
		t.Errorf("drift flags: %+v", stats)
	}
	if stats[1].QuantileError < 1.9 || stats[1].QuantileError > 2.1 {
		t.Errorf("spark quantile error = %g, want ~2", stats[1].QuantileError)
	}

	d.Reset()
	if d.Drifted() || len(d.Stats()) != 0 {
		t.Error("Reset did not clear windows")
	}
}

// TestDriftedMatchesStats holds the counting form of Drifted to the sorted
// form in Stats: after every observation, over seeded error streams that sit
// around the threshold (ties included) and windows around MinSamples, before
// and after the ring wraps.
func TestDriftedMatchesStats(t *testing.T) {
	sawDrift, sawCalm := false, false
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DriftConfig{
			Window:     2 + rng.Intn(12),
			Quantile:   []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1}[rng.Intn(6)],
			Threshold:  0.5,
			MinSamples: 1 + rng.Intn(8),
		}
		d := NewDetector(cfg)
		for i := 0; i < 4*cfg.Window; i++ {
			// Relative error is one of a few values straddling the
			// threshold, 0.5 itself among them.
			relErr := []float64{0, 0.25, 0.5, 0.5, 0.75, 3}[rng.Intn(6)]
			o := Observation{Engine: []string{"hive", "spark"}[rng.Intn(2)], PredictedSeconds: 100 * (1 + relErr), ObservedSeconds: 100}
			if rng.Intn(3) == 0 {
				o.Operators = []OperatorSample{{Algo: "SMJ", PredictedSeconds: 10 * (1 + relErr), ObservedSeconds: 10}}
			}
			d.Observe(o)
			want := false
			for _, s := range d.Stats() {
				want = want || s.Drifted
			}
			if got := d.Drifted(); got != want {
				t.Fatalf("seed %d cfg %+v after %d observations: Drifted() = %v, Stats() says %v: %+v", seed, cfg, i+1, got, want, d.Stats())
			}
			sawDrift, sawCalm = sawDrift || want, sawCalm || !want
		}
	}
	if !sawDrift || !sawCalm {
		t.Fatal("streams never exercised both answers")
	}
}

// TestWindowQuantileRule pins the drift windows' rule where q·n is 8.5:
// the ⌊8.5⌋ = 8th smallest, one below stats.Percentile's nearest rank.
// quantileExceeds, which counts instead of sorting, agrees at that
// sample's value and one step below it.
func TestWindowQuantileRule(t *testing.T) {
	if got := quantileIdx(0.5, 17); got != 7 {
		t.Fatalf("quantileIdx(0.5, 17) = %d, want 7", got)
	}
	w := &window{errs: make([]float64, 17)}
	for i := range 17 {
		w.push(float64(17 - i))
	}
	if got, _ := w.quantile(0.5, nil); got != 8 {
		t.Errorf("median of a 1…17 window = %v, want the 8th smallest, 8", got)
	}
	if w.quantileExceeds(0.5, 8) || !w.quantileExceeds(0.5, 7.5) {
		t.Error("quantileExceeds disagrees with the 8th smallest sample")
	}
}

func TestDetectorWindowEvictsOldErrors(t *testing.T) {
	d := NewDetector(DriftConfig{Window: 4, Quantile: 0.5, Threshold: 0.5, MinSamples: 2})
	for i := 0; i < 4; i++ {
		d.Observe(Observation{Engine: "hive", PredictedSeconds: 300, ObservedSeconds: 100})
	}
	if !d.Drifted() {
		t.Fatal("want drift on bad window")
	}
	// A full window of accurate samples displaces the bad ones.
	for i := 0; i < 4; i++ {
		d.Observe(Observation{Engine: "hive", PredictedSeconds: 100, ObservedSeconds: 100})
	}
	if d.Drifted() {
		t.Fatal("stale errors outlived the window")
	}
}

func TestDetectorTracksOperatorClasses(t *testing.T) {
	d := NewDetector(DriftConfig{MinSamples: 1})
	d.Observe(obs(1))
	stats := d.Stats()
	if len(stats) != 2 {
		t.Fatalf("classes = %+v", stats)
	}
	if stats[0].Class != "SMJ" || stats[1].Class != "query" {
		t.Errorf("classes = %+v", stats)
	}
}

func TestMeanAbsRelError(t *testing.T) {
	flat := cost.NewModels().Set(plan.SMJ, cost.ModelFunc{ModelName: "flat", Fn: func(ss, cs, nc float64) float64 { return 10 }})
	profiles := []cost.Profile{
		{Algo: plan.SMJ, SS: 1, CS: 1, NC: 1, Seconds: 20}, // err 0.5
		{Algo: plan.SMJ, SS: 2, CS: 1, NC: 1, Seconds: 10}, // err 0
		{Algo: plan.BHJ, SS: 1, CS: 1, NC: 1, Seconds: 10}, // no model: err 1
	}
	got := MeanAbsRelError(flat, profiles)
	want := (0.5 + 0 + 1) / 3
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("MeanAbsRelError = %g, want %g", got, want)
	}
	if MeanAbsRelError(flat, nil) != 0 {
		t.Error("empty profiles should score 0")
	}
}
