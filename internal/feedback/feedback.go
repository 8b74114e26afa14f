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
//     survives restarts. Each journal line is a single-line JSON object
//     that the codec decodes to exactly the acknowledged observation: the
//     request bytes the observation was decoded from when it arrived in
//     the canonical shape with its own observedAt (for what json.Marshal
//     writes, byte for byte json.Marshal's line), json.Marshal's encoding
//     otherwise.
//   - Detector: windowed relative-error quantiles per (engine, operator
//     class); when the configured quantile exceeds the threshold, the
//     model has drifted.
//   - Recalibrator: on drift, re-runs cost.Train on the accumulated
//     operator samples, swaps the model set in atomically (versioned, via
//     atomic pointer) and runs the swap hooks, through which optimizers
//     re-plan under the new model.
//   - Observer: converts execsim results (or scheduler outcomes) into
//     observations, predicting with the live model set so the recorded
//     error always measures the model that was actually in charge.
//
// Everything is deterministic given the same observation sequence: the
// ring preserves append order, training consumes samples in that order,
// and quantiles are order statistics of the windows — replaying a journal
// reproduces the same model coefficients bit for bit.
package feedback

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"raqo/internal/applog"
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
	// (accepted for backward compatibility with old journals; the server
	// stamps it with its clock). On the wire (POST /v1/feedback) its domain
	// is [0, now+MaxClockSkewSeconds] at the server's clock now
	// (CheckObservedAt): a later one would move the history store's
	// high-water mark ahead and age out its whole past, a negative one
	// aligns to a wrapped bucket. An old timestamp is accepted, a replay
	// of recorded executions for one: it lands behind the high-water mark
	// and never moves retention.
	ObservedAt int64            `json:"observedAt,omitempty"`
	Operators  []OperatorSample `json:"operators,omitempty"`
}

// RelError is the query-level relative prediction error |pred-obs|/obs.
func (o *Observation) RelError() float64 {
	return relError(o.PredictedSeconds, o.ObservedSeconds)
}

// MaxClockSkewSeconds is how far ahead of the receiving server's clock a
// wire observation's ObservedAt may lie: clock skew between a client and
// the server, not a schedule.
const MaxClockSkewSeconds = 300

// CheckObservedAt checks a wire observation's ObservedAt against its
// domain at server time now: neither negative nor more than
// MaxClockSkewSeconds ahead of now.
func CheckObservedAt(at, now int64) error {
	switch {
	case at < 0:
		return fmt.Errorf("feedback: observedAt %d is negative", at)
	case at > now+MaxClockSkewSeconds:
		return fmt.Errorf("feedback: observedAt %d is more than %ds ahead of the server clock (%d)", at, MaxClockSkewSeconds, now)
	}
	return nil
}

// Validate checks the observation is usable as evidence: an engine, a
// positive observed time, no negative prediction or dollar amount, and
// operators with a known algorithm, positive features and observed time
// and no negative prediction. A negative prediction would enter the drift
// detector and the error series as a relative error above 1.
func (o *Observation) Validate() error {
	switch {
	case o.Engine == "":
		return fmt.Errorf("feedback: observation missing engine")
	case o.ObservedSeconds <= 0:
		return fmt.Errorf("feedback: observed time must be positive, got %g", o.ObservedSeconds)
	case o.PredictedSeconds < 0:
		return fmt.Errorf("feedback: predictedSeconds must not be negative, got %g", o.PredictedSeconds)
	case o.PredictedDollars < 0:
		return fmt.Errorf("feedback: predictedDollars must not be negative, got %g", float64(o.PredictedDollars))
	case o.ObservedDollars < 0:
		return fmt.Errorf("feedback: observedDollars must not be negative, got %g", float64(o.ObservedDollars))
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
		if s.PredictedSeconds < 0 {
			return fmt.Errorf("feedback: operator %d predictedSeconds must not be negative, got %g",
				i, s.PredictedSeconds)
		}
	}
	return nil
}

// parseAlgo maps the wire name onto the plan operator enum.
func parseAlgo(name string) (plan.JoinAlgo, error) {
	if a, ok := plan.ParseAlgo(name); ok {
		return a, nil
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

// InvalidError reports which observation of a batch failed Validate; its
// text is the validation error's own.
type InvalidError struct {
	Index int
	Err   error
}

func (e *InvalidError) Error() string { return e.Err.Error() }
func (e *InvalidError) Unwrap() error { return e.Err }

// AppendBatch validates and records a batch, all of it or none: an invalid
// observation is an *InvalidError before anything is written, and the
// journal takes the batch in one write before the ring sees any of it, so
// a crash never loses acknowledged feedback and a failed batch leaves
// nothing behind for the client's retry to double. lines, when not nil,
// holds each observation's journal line, as Journal.AppendBatch takes them.
func (s *Store) AppendBatch(obs []Observation, lines [][]byte) error {
	for i := range obs {
		if err := obs[i].Validate(); err != nil {
			return &InvalidError{Index: i, Err: err}
		}
	}
	if s.journal != nil {
		if err := s.journal.AppendBatch(obs, lines); err != nil {
			return err
		}
	}
	s.mu.Lock()
	for i := range obs {
		s.ring[s.next] = obs[i]
		s.next++
		if s.next == len(s.ring) {
			s.next = 0
			s.full = true
		}
	}
	s.total += int64(len(obs))
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
// observation per line, in append order, each line a JSON object the
// codec decodes to exactly that observation. Replaying the file through a
// fresh store and recalibrator reproduces the exact model state (see the
// determinism test), which is also what `raqo calibrate` does offline.
//
// The files are newline-framed internal/applog logs. A batch reaches the
// file in one write, and a line counts only once its newline is there:
// whatever follows the last newline is a write a crash cut short, never
// acknowledged. Opening the journal cuts it off before the first append
// could glue a good line onto it, a failed write is cut back, and
// ReadJournal skips a tail. Acknowledged means written: nothing calls
// fsync, so an acknowledged batch survives a process crash (kill -9), not
// an OS crash or power loss.
//
// With rotation enabled (JournalConfig.MaxBytes > 0) the active file is
// renamed to `<path>.<n>` once it grows past the limit — n counting up, so
// lexicographically-later numbered files are newer — and a fresh active
// file is started. ReadJournal replays the numbered files oldest first and
// the active file last, so rotation never changes replay order. MaxFiles
// bounds how many rotated files are kept; pruning deletes the oldest
// evidence first, mirroring the in-memory ring's overwrite policy.
type Journal struct {
	mu     sync.Mutex
	path   string        // immutable after open
	fs     applog.FS     // immutable after open
	log    *applog.Log   // guarded by mu; nil once closed
	buf    []byte        // guarded by mu; the encoded batch, reused
	cfg    JournalConfig // immutable after open
	writes atomic.Int64  // writes that reached the file
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
// appending, with the given rotation policy, and cuts off a torn tail.
func OpenJournalConfig(path string, cfg JournalConfig) (*Journal, error) {
	return openJournal(path, cfg, applog.OS)
}

// openJournal is OpenJournalConfig writing through fsys, which only tests
// replace.
func openJournal(path string, cfg JournalConfig, fsys applog.FS) (*Journal, error) {
	l, err := applog.Open(fsys, path, "", nil)
	if err != nil {
		return nil, fmt.Errorf("feedback: open journal: %w", err)
	}
	return &Journal{path: path, fs: fsys, log: l, cfg: cfg}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Writes returns how many writes have reached the journal's files: one
// per batch, plus one for each rotation boundary inside a batch.
func (j *Journal) Writes() int64 { return j.writes.Load() }

// AppendBatch writes the observations as JSON lines with one write. A line
// is lines[i] when lines is not nil and lines[i] is not: the bytes obs[i]
// was decoded from, a single-line object the codec decodes to exactly
// obs[i] (DecodeBatch's lines). Every other line is json.Marshal's. The
// lines are copied; nothing keeps a reference to them. With
// rotation on, the files end up byte for byte as if the lines had been
// appended one at a time: a line that would push the active file past the
// limit rotates it first, so a batch across that boundary is two writes.
// A batch that fails leaves no line behind, short of one that spans
// several rotations (what an earlier rotation carried off stays) or a
// rotation whose old file fails to close.
func (j *Journal) AppendBatch(obs []Observation, lines [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf := j.buf[:0]
	for i := range obs {
		if lines != nil && lines[i] != nil {
			buf = append(buf, lines[i]...)
		} else {
			b, err := json.Marshal(obs[i]) // a copy: obs must not escape
			if err != nil {
				return fmt.Errorf("feedback: journal encode: %w", err)
			}
			buf = append(buf, b...)
		}
		buf = append(buf, '\n')
	}
	j.buf = buf
	if j.log == nil {
		return fmt.Errorf("feedback: journal %s is closed", j.path)
	}
	if j.cfg.MaxBytes > 0 {
		for line := 0; line < len(buf); {
			n := bytes.IndexByte(buf[line:], '\n') + 1
			if size := j.log.Size() + int64(line); size > 0 && size+int64(n) > j.cfg.MaxBytes {
				if err := j.rotateLocked(buf[:line]); err != nil {
					return err
				}
				buf, line = buf[line:], 0
			}
			line += n
		}
	}
	return j.writeLocked(buf)
}

// writeLocked appends p to the active file; the log cuts a failed write
// back, so the next batch does not start in mid-line.
func (j *Journal) writeLocked(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if err := j.log.Append(p); err != nil {
		return fmt.Errorf("feedback: journal write: %w", err)
	}
	j.writes.Add(1)
	return nil
}

// rotateLocked writes tail — the lines of the batch in hand that still
// belong to the active file — renames that file to the next numbered slot,
// prunes rotated files beyond MaxFiles (oldest first) and starts a fresh
// active file. A failure mid-rotation degrades rather than disables: tail
// is cut back, because its batch is about to be refused, and appends go on
// into the oversized file if it was not renamed, or into a fresh one at
// the path if it was.
func (j *Journal) rotateLocked(tail []byte) error {
	size := j.log.Size()
	if err := j.writeLocked(tail); err != nil {
		return err
	}
	nums, err := rotatedJournalNums(j.path)
	next := 1
	if len(nums) > 0 {
		next = nums[len(nums)-1] + 1
	}
	if err == nil {
		if err = j.log.Rename(fmt.Sprintf("%s.%d", j.path, next)); err != nil {
			err = fmt.Errorf("feedback: journal rotate: %w", err)
		}
	}
	if err != nil {
		_ = j.log.Truncate(size) // on failure the log refuses appends
		return err
	}
	err = j.pruneLocked(append(nums, next))
	fresh, oerr := applog.Open(j.fs, j.path, "", nil)
	if err == nil && oerr != nil {
		err = fmt.Errorf("feedback: journal rotate: %w", oerr)
	}
	old := j.log
	if err != nil {
		_ = old.Truncate(size) // its batch is refused
	}
	if cerr := old.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("feedback: journal close: %w", cerr)
	}
	j.log = fresh // nil when the open failed: later batches find the journal closed
	return err
}

// pruneLocked deletes the oldest rotated files beyond MaxFiles.
func (j *Journal) pruneLocked(nums []int) error {
	for j.cfg.MaxFiles > 0 && len(nums) > j.cfg.MaxFiles {
		if err := j.fs.Remove(fmt.Sprintf("%s.%d", j.path, nums[0])); err != nil {
			return fmt.Errorf("feedback: journal prune: %w", err)
		}
		nums = nums[1:]
	}
	return nil
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

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}

// ReadJournal replays a journal into observations, in append order: any
// rotated files (`<path>.<n>`) oldest first, then the active file. Each
// line is a single-line JSON object that decodes to exactly the
// observation that was acknowledged: the codec's canonical shape as the
// client sent it or as json.Marshal wrote it, or anything else
// encoding/json reads (a string json.Marshal escaped, say). Invalid lines fail
// the replay: a journal is written only through AppendBatch, so
// corruption is worth surfacing, not skipping. The one exception is what
// follows a file's last newline, a write a crash cut short.
func ReadJournal(path string) ([]Observation, error) {
	nums, err := rotatedJournalNums(path)
	if err != nil {
		return nil, err
	}
	var out []Observation
	var dec decoder
	for _, n := range nums {
		out, err = readJournalFile(fmt.Sprintf("%s.%d", path, n), &dec, out)
		if err != nil {
			return nil, err
		}
	}
	return readJournalFile(path, &dec, out)
}

// readJournalFile appends one journal file's observations to out.
func readJournalFile(path string, dec *decoder, out []Observation) ([]Observation, error) {
	line := 0
	var bad error
	err := applog.ScanLines(path, func(b []byte) error {
		line++
		if len(b) == 0 {
			return nil
		}
		out = append(out, Observation{})
		o := &out[len(out)-1]
		if !dec.line(b, o) {
			*o = Observation{}
			if err := json.Unmarshal(b, o); err != nil {
				bad = fmt.Errorf("feedback: journal %s line %d: %w", path, line, err)
				return bad
			}
		}
		if err := o.Validate(); err != nil {
			bad = fmt.Errorf("feedback: journal %s line %d: %w", path, line, err)
			return bad
		}
		return nil
	})
	switch {
	case bad != nil:
		return nil, bad
	case err != nil:
		return nil, fmt.Errorf("feedback: read journal: %w", err)
	}
	return out, nil
}
