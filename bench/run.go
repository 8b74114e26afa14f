package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options selects one run of one workload.
type options struct {
	spec    *workloadSpec
	seed    int64
	seconds int
	// n, warm and preload override the sizing when positive (tests).
	n, warm, preload int
	builds           int
	dir              string // scratch root, inside the checkout
	out              string // where the traced run writes its spans
}

func (o *options) sizes() (n, warm int) {
	n, warm = o.spec.opsPerSecond*o.seconds, o.spec.warmOps
	if o.n > 0 {
		n = o.n
	}
	if o.warm > 0 {
		warm = o.warm
	}
	if q := o.spec.quantum; q > 0 && n >= q {
		n = n / q * q
	}
	return n, warm
}

// record is one run's full result. The contract line is derived from it;
// the record itself is printed one line earlier for people and tools that
// want the provenance and the spread.
type record struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"` // "measured" or "traced"
	provenance
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	N          int    `json:"n"`
	WarmOps    int    `json:"warm_ops"`
	Workers    int    `json:"workers"`
	StreamHash string `json:"stream_hash"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`

	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`
	// Status is "ok", "unstable" (stationarity guard tripped),
	// "unaccounted" (traced replays disagree by more than maxClippedShare)
	// or "failed".
	Status string `json:"status"`

	// Every cold build's time as measured, and how slow the box was
	// around it; setup_s is the median of their quotients.
	SetupAllS []float64 `json:"setup_all_s,omitempty"`
	SetupSlow []float64 `json:"setup_slowness,omitempty"`
	ElapsedS  float64   `json:"elapsed_s"`
	Summary   *summary  `json:"summary,omitempty"`

	// Traced run only: how many spans were recorded, and the share of
	// traced op time that inner spans had to be shortened by to fit the
	// outer ones they were replayed under. Layer self times sum to the op
	// time by construction once the tree nests, so this share is what the
	// replays actually disagree by; above maxClippedShare the run is
	// reported "unaccounted".
	TraceSpans   int     `json:"trace_spans,omitempty"`
	TraceClipped float64 `json:"trace_clipped_share"`

	Metrics map[string]metric `json:"metrics"`
}

func (r *record) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// contractLine is the last line of a run's standard output.
func (r *record) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // a map of numbers and strings
	}
	return string(b)
}

// print writes every metric with its name and unit, then the record.
func (r *record) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-12s %-34s %14.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

func newRecord(o *options, mode string, e *env) *record {
	return &record{
		Workload:   o.spec.name,
		Mode:       mode,
		provenance: newProvenance(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		N:          len(e.stream.ops),
		WarmOps:    len(e.stream.warm),
		Workers:    e.workers,
		StreamHash: e.stream.hash(),
		LoadStart:  loadAverage(),
		Metrics:    map[string]metric{},
	}
}

// account adds a timing's ops to the record's counts.
func (r *record) account(t *timing) {
	r.Attempted += len(t.failed)
	r.Failed += t.failures()
	if r.FirstErr == "" && t.firstErr != nil {
		r.FirstErr = t.firstErr.Error()
	}
}

func (r *record) finish() {
	r.Succeeded = r.Attempted - r.Failed
	r.LoadEnd = loadAverage()
	switch {
	case !r.correct():
		r.Status = "failed"
	case r.Summary != nil && !r.Summary.Stable:
		r.Status = "unstable"
	case r.TraceClipped > maxClippedShare:
		r.Status = "unaccounted"
	default:
		r.Status = "ok"
	}
}

// scratchDir makes a private directory for one run under the scratch
// root; the caller removes it.
func scratchDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}

// runMeasured is the untraced run every end-to-end metric comes from:
// prepare, build cold five times keeping the last, run the N ops window by
// window with a reference slice before each window and after the last,
// summarize.
func runMeasured(o *options) (*record, error) {
	dir, err := scratchDir(o.dir, o.spec.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	n, warm := o.sizes()
	e, err := prepare(o, numWorkers, warm, n, dir)
	if err != nil {
		return nil, err
	}
	ref, err := startSpeedRef(o.spec.ref)
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	r := newRecord(o, "measured", e)

	var b *built
	var setups []float64
	for i := 0; i < o.builds; i++ {
		if b != nil {
			if err := b.teardown(); err != nil {
				return nil, fmt.Errorf("%s: teardown: %w", o.spec.name, err)
			}
		}
		// Every build, and the measured ops after the last, start from a
		// collected heap: what the previous build left behind is not
		// theirs to pay for.
		runtime.GC()
		before, err := ref.slowness()
		if err != nil {
			return nil, err
		}
		if b, err = coldBuild(e, nil); err != nil {
			return nil, err
		}
		after, err := ref.slowness()
		if err != nil {
			_ = b.teardown()
			return nil, err
		}
		slow := (before + after) / 2
		r.SetupAllS = append(r.SetupAllS, b.total().Seconds())
		r.SetupSlow = append(r.SetupSlow, slow)
		setups = append(setups, b.total().Seconds()/slow)
		r.account(b.warmup)
	}
	// A run that takes three times its nominal length has failed; its
	// remaining ops are counted as failed rather than waited for.
	runtime.GC()
	deadline := time.Now().Add(3 * time.Duration(o.seconds) * time.Second)
	t := &timing{base: time.Now()}
	wins := splitWindows(len(e.stream.ops), numWindows)
	slow := make([]float64, 0, len(wins)+1)
	for w := 0; w <= len(wins); w++ {
		s, err := ref.slowness()
		if err != nil {
			_ = b.teardown()
			return nil, err
		}
		slow = append(slow, s)
		if w < len(wins) {
			t.add(w, runOps(e, b.workers, b.states, e.stream.ops[wins[w].lo:wins[w].hi], validateEvery, deadline))
		}
	}
	t.elapsed = time.Since(t.base)
	rss := peakRSSMB()
	r.account(t)
	r.ElapsedS = t.elapsed.Seconds()
	if err := b.teardown(); err != nil {
		return nil, fmt.Errorf("%s: teardown: %w", o.spec.name, err)
	}

	s := summarize(o.spec, e.stream.ops, t, e.workers, slow)
	r.Summary = &s
	values := map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   s.OpsPerS,
		"p50_us":      s.P50US,
		"p90_us":      s.P90US,
		"peak_rss_mb": rss,
	}
	for _, m := range endToEndUnits {
		r.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	r.finish()
	return r, nil
}
