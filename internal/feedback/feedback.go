// Package feedback closes the loop from execution back into optimization:
// the piece the paper leaves open when it notes that calibrated cost models
// and cached resource plans go stale as data and cluster conditions drift.
//
// The subsystem has four parts, composed by internal/server and usable
// standalone:
//
//   - Store: a bounded in-memory ring of execution observations — per query
//     (signature, engine, predicted vs observed time and money) and per
//     operator (the cost-model features and the measured stage time) — with
//     an optional append-only JSONL journal so the accumulated evidence
//     survives restarts.
//   - Detector: windowed relative-error quantiles per (engine, operator
//     class); when the configured quantile exceeds the threshold, the
//     model has drifted.
//   - Recalibrator: on drift, re-runs cost.Train on the accumulated
//     operator samples, swaps the model set in atomically (versioned, via
//     atomic pointer) and bumps the resource-plan cache generation so
//     stale configurations are re-planned under the new model.
//   - Observer: converts execsim results (or scheduler outcomes) into
//     observations, predicting with the live model set so the recorded
//     error always measures the model that was actually in charge.
//
// Everything is deterministic given the same observation sequence: the
// ring preserves append order, training consumes samples in that order,
// and quantiles are computed over sorted copies — replaying a journal
// reproduces the same model coefficients bit for bit.
package feedback

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// OperatorSample is one join operator's execution feedback: the cost-model
// feature point (smaller input, container size, container count) with the
// predicted and observed stage times.
type OperatorSample struct {
	Algo             string  `json:"algo"` // "SMJ" or "BHJ"
	SSGB             float64 `json:"ssGB"` // smaller input, GB
	CSGB             float64 `json:"csGB"` // container size, GB
	NC               float64 `json:"nc"`   // concurrent containers
	PredictedSeconds float64 `json:"predictedSeconds"`
	ObservedSeconds  float64 `json:"observedSeconds"`
}

// RelError is the sample's relative prediction error |pred-obs|/obs.
func (s OperatorSample) RelError() float64 {
	return relError(s.PredictedSeconds, s.ObservedSeconds)
}

// Profile converts the sample into cost-model training data.
func (s OperatorSample) Profile() (cost.Profile, error) {
	algo, err := parseAlgo(s.Algo)
	if err != nil {
		return cost.Profile{}, err
	}
	return cost.Profile{Algo: algo, SS: s.SSGB, CS: s.CSGB, NC: s.NC, Seconds: s.ObservedSeconds}, nil
}

// Observation is one executed query's feedback: what the optimizer
// promised versus what the engine delivered, plus the per-operator samples
// that make the evidence trainable.
type Observation struct {
	Signature        string    `json:"signature"` // plan signature (with resources)
	Engine           string    `json:"engine"`    // e.g. "hive", "spark"
	PredictedSeconds float64   `json:"predictedSeconds"`
	ObservedSeconds  float64   `json:"observedSeconds"`
	PredictedDollars units.USD `json:"predictedDollars"`
	ObservedDollars  units.USD `json:"observedDollars"`
	// ObservedAt is when the execution finished, in unix seconds — wall
	// time in the server, virtual time under the arbiter's clock. It keys
	// the observation into the history store; 0 means "not timestamped"
	// (accepted for backward compatibility with old journals).
	ObservedAt int64            `json:"observedAt,omitempty"`
	Operators  []OperatorSample `json:"operators,omitempty"`
}

// RelError is the query-level relative prediction error |pred-obs|/obs.
func (o *Observation) RelError() float64 {
	return relError(o.PredictedSeconds, o.ObservedSeconds)
}

// Validate checks the observation is usable as evidence.
func (o *Observation) Validate() error {
	if o.Engine == "" {
		return fmt.Errorf("feedback: observation missing engine")
	}
	if o.ObservedSeconds <= 0 {
		return fmt.Errorf("feedback: observed time must be positive, got %g", o.ObservedSeconds)
	}
	for i, s := range o.Operators {
		if _, err := parseAlgo(s.Algo); err != nil {
			return fmt.Errorf("feedback: operator %d: %w", i, err)
		}
		if s.SSGB <= 0 || s.CSGB <= 0 || s.NC < 1 {
			return fmt.Errorf("feedback: operator %d has invalid features ss=%g cs=%g nc=%g",
				i, s.SSGB, s.CSGB, s.NC)
		}
		if s.ObservedSeconds <= 0 {
			return fmt.Errorf("feedback: operator %d observed time must be positive, got %g",
				i, s.ObservedSeconds)
		}
	}
	return nil
}

// parseAlgo maps the wire name onto the plan operator enum.
func parseAlgo(name string) (plan.JoinAlgo, error) {
	for _, a := range plan.Algos {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("feedback: unknown join algorithm %q", name)
}

// relError is |pred-obs| normalized by the observation; obs <= 0 yields 0
// (such samples are rejected by Validate before they reach a window).
func relError(pred, obs float64) float64 {
	if obs <= 0 {
		return 0
	}
	d := pred - obs
	if d < 0 {
		d = -d
	}
	return d / obs
}

// Store is the bounded execution-feedback ring. Appends beyond the
// capacity overwrite the oldest observation; the optional journal records
// every append durably. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	ring    []Observation // guarded by mu
	next    int           // guarded by mu; ring write cursor
	full    bool          // guarded by mu; ring has wrapped
	total   int64         // guarded by mu; appends ever
	journal *Journal      // immutable after NewStore
}

// DefaultStoreCapacity bounds the ring when NewStore is given 0.
const DefaultStoreCapacity = 4096

// NewStore builds a feedback store holding up to capacity observations
// (0 selects DefaultStoreCapacity). journal may be nil.
func NewStore(capacity int, journal *Journal) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{ring: make([]Observation, capacity), journal: journal}
}

// Append validates and records one observation, journaling it first so a
// crash never loses acknowledged feedback.
//
//raqo:ack
func (s *Store) Append(o Observation) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if s.journal != nil {
		if err := s.journal.Append(o); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.ring[s.next] = o
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
	s.total++
	s.mu.Unlock()
	return nil
}

// Len returns the number of observations currently held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full {
		return len(s.ring)
	}
	return s.next
}

// Total returns the number of observations ever appended (the journal's
// length when one is attached and never truncated).
func (s *Store) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Snapshot copies the held observations oldest first — the deterministic
// order recalibration trains in.
func (s *Store) Snapshot() []Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return append([]Observation(nil), s.ring[:s.next]...)
	}
	out := make([]Observation, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// Profiles flattens the held observations into cost-model training
// samples, oldest observation first, operators in recorded order.
func (s *Store) Profiles() []cost.Profile {
	var out []cost.Profile
	for _, o := range s.Snapshot() {
		for _, op := range o.Operators {
			p, err := op.Profile()
			if err != nil {
				continue // rejected by Validate on honest appends
			}
			out = append(out, p)
		}
	}
	return out
}

// Journal is the append-only JSONL persistence behind a Store: one
// observation per line, in append order. Replaying the file through a
// fresh store and recalibrator reproduces the exact model state (see the
// determinism test), which is also what `raqo calibrate` does offline.
//
// With rotation enabled (JournalConfig.MaxBytes > 0) the active file is
// renamed to `<path>.<n>` once it grows past the limit — n counting up, so
// lexicographically-later numbered files are newer — and a fresh active
// file is started. ReadJournal replays the numbered files oldest first and
// the active file last, so rotation never changes replay order. MaxFiles
// bounds how many rotated files are kept; pruning deletes the oldest
// evidence first, mirroring the in-memory ring's overwrite policy.
type Journal struct {
	mu   sync.Mutex
	path string        // immutable after open
	f    *os.File      // guarded by mu; nil once closed
	w    *bufio.Writer // guarded by mu
	size int64         // guarded by mu
	cfg  JournalConfig // immutable after open
}

// JournalConfig tunes journal rotation. The zero value disables it.
type JournalConfig struct {
	// MaxBytes rotates the active file once appending would grow it past
	// this size; 0 never rotates.
	MaxBytes int64
	// MaxFiles bounds the number of rotated files kept (the active file is
	// not counted); 0 keeps every rotation.
	MaxFiles int
}

// OpenJournalConfig opens (creating if needed) a journal file for
// appending, with the given rotation policy.
func OpenJournalConfig(path string, cfg JournalConfig) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("feedback: open journal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("feedback: open journal: %w", err)
	}
	return &Journal{path: path, f: f, w: bufio.NewWriter(f), size: info.Size(), cfg: cfg}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append writes one observation as a JSON line and flushes it, rotating
// first if the line would push the active file past the size limit.
func (j *Journal) Append(o Observation) error {
	b, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("feedback: journal encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("feedback: journal %s is closed", j.path)
	}
	if j.cfg.MaxBytes > 0 && j.size > 0 && j.size+int64(len(b))+1 > j.cfg.MaxBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("feedback: journal write: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("feedback: journal flush: %w", err)
	}
	j.size += int64(len(b)) + 1
	return nil
}

// rotateLocked renames the active file to the next numbered slot, prunes
// rotated files beyond MaxFiles (oldest first) and starts a fresh active
// file. A failure mid-rotation degrades rather than disables: the path is
// reopened for append so later Appends keep journaling (into an oversized
// or fresh file) instead of permanently returning "journal is closed".
func (j *Journal) rotateLocked() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("feedback: journal flush: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("feedback: journal close: %w", err)
	}
	j.f = nil
	if err := j.rotateFilesLocked(); err != nil {
		j.reopenDegradedLocked()
		return err
	}
	return nil
}

// rotateFilesLocked is the rename/prune/reopen step of rotation; on entry
// the active file is closed and j.f is nil.
func (j *Journal) rotateFilesLocked() error {
	nums, err := rotatedJournalNums(j.path)
	if err != nil {
		return err
	}
	next := 1
	if len(nums) > 0 {
		next = nums[len(nums)-1] + 1
	}
	if err := os.Rename(j.path, fmt.Sprintf("%s.%d", j.path, next)); err != nil {
		return fmt.Errorf("feedback: journal rotate: %w", err)
	}
	nums = append(nums, next)
	if j.cfg.MaxFiles > 0 {
		for len(nums) > j.cfg.MaxFiles {
			if err := os.Remove(fmt.Sprintf("%s.%d", j.path, nums[0])); err != nil {
				return fmt.Errorf("feedback: journal prune: %w", err)
			}
			nums = nums[1:]
		}
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: journal rotate: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.size = 0
	return nil
}

// reopenDegradedLocked best-effort reopens the journal path for append
// after a failed rotation. If the rename already happened the path comes
// back as a fresh file; otherwise appends continue into the oversized one.
// If even the reopen fails, j.f stays nil and Append keeps erroring.
func (j *Journal) reopenDegradedLocked() {
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.size = 0
	if info, err := f.Stat(); err == nil {
		j.size = info.Size()
	}
}

// rotatedJournalNums lists the numeric suffixes of path's rotated files,
// ascending (oldest rotation first).
func rotatedJournalNums(path string) ([]int, error) {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return nil, fmt.Errorf("feedback: journal glob: %w", err)
	}
	var nums []int
	for _, m := range matches {
		n, err := strconv.Atoi(strings.TrimPrefix(m, path+"."))
		if err != nil || n < 1 {
			continue // unrelated file sharing the prefix
		}
		nums = append(nums, n)
	}
	sort.Ints(nums)
	return nums, nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	flushErr := j.w.Flush()
	closeErr := j.f.Close()
	j.f = nil
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// ReadJournal replays a journal into observations, in append order: any
// rotated files (`<path>.<n>`) oldest first, then the active file. Invalid
// lines fail the replay: a journal is written only through Append, so
// corruption is worth surfacing, not skipping.
func ReadJournal(path string) ([]Observation, error) {
	nums, err := rotatedJournalNums(path)
	if err != nil {
		return nil, err
	}
	var out []Observation
	for _, n := range nums {
		out, err = readJournalFile(fmt.Sprintf("%s.%d", path, n), out)
		if err != nil {
			return nil, err
		}
	}
	return readJournalFile(path, out)
}

// readJournalFile appends one journal file's observations to out.
func readJournalFile(path string, out []Observation) ([]Observation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("feedback: read journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var o Observation
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("feedback: journal %s line %d: %w", path, line, err)
		}
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("feedback: journal %s line %d: %w", path, line, err)
		}
		out = append(out, o)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("feedback: journal %s: %w", path, err)
	}
	return out, nil
}
