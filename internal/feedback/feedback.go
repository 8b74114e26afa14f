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
//     writes, byte for byte AppendJSON's line), AppendJSON's encoding
//     otherwise.
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
// and quantiles are order statistics of the windows — replaying a journal
// reproduces the same model coefficients bit for bit.
package feedback

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// InvalidError reports which observation of a batch failed Validate; its
// text is the validation error's own.
type InvalidError struct {
	Index int
	Err   error
}

func (e *InvalidError) Error() string { return e.Err.Error() }
func (e *InvalidError) Unwrap() error { return e.Err }

// Append validates and records one observation: AppendBatch of one.
func (s *Store) Append(o Observation) error {
	return s.AppendBatch([]Observation{o}, nil)
}

// AppendBatch validates and records a batch, all of it or none: an invalid
// observation is an *InvalidError before anything is written, and the
// journal takes the batch in one write before the ring sees any of it, so
// a crash never loses acknowledged feedback and a failed batch leaves
// nothing behind for the client's retry to double. lines, when not nil,
// holds each observation's journal line, as Journal.AppendBatch takes them.
//
//raqo:ack
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
// A batch reaches the file in one write, and a line counts only once its
// newline is there: whatever follows the last newline is a write a crash
// cut short, never acknowledged. Opening the journal cuts it off before
// the first append could glue a good line onto it, and ReadJournal skips
// it.
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
	f      *os.File      // guarded by mu; nil once closed
	size   int64         // guarded by mu
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
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("feedback: open journal: %w", err)
	}
	size, err := trimTornTail(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("feedback: open journal: %w", err)
	}
	return &Journal{path: path, f: f, size: size, cfg: cfg}, nil
}

// trimTornTail truncates f to just after its last newline and returns the
// size that leaves.
func trimTornTail(f *os.File) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	var chunk [4096]byte
	end := info.Size()
	for end > 0 {
		n := min(end, int64(len(chunk)))
		if _, err := f.ReadAt(chunk[:n], end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(chunk[:n], '\n'); i >= 0 {
			end += int64(i+1) - n
			break
		}
		end -= n
	}
	if end < info.Size() {
		if err := f.Truncate(end); err != nil {
			return 0, err
		}
	}
	return end, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Writes returns how many writes have reached the journal's files: one
// per batch, plus one for each rotation boundary inside a batch.
func (j *Journal) Writes() int64 { return j.writes.Load() }

// Append writes one observation: AppendBatch of one.
func (j *Journal) Append(o Observation) error {
	return j.AppendBatch([]Observation{o}, nil)
}

// AppendBatch writes the observations as JSON lines with one write. A line
// is lines[i] when lines is not nil and lines[i] is not: the bytes obs[i]
// was decoded from, a single-line object the codec decodes to exactly
// obs[i] (DecodeBatch's lines). Every other line is AppendJSON's encoding. The
// lines are copied; nothing keeps a reference to them. With
// rotation on, the files end up byte for byte as if the lines had been
// appended one at a time: a line that would push the active file past the
// limit rotates it first, so a batch across that boundary is two writes.
// A batch that fails leaves no line behind, short of one that spans
// several rotations: what an earlier rotation carried off stays.
func (j *Journal) AppendBatch(obs []Observation, lines [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf := j.buf[:0]
	for i := range obs {
		if lines != nil && lines[i] != nil {
			buf = append(buf, lines[i]...)
		} else {
			var err error
			if buf, err = AppendJSON(buf, &obs[i]); err != nil {
				return fmt.Errorf("feedback: journal encode: %w", err)
			}
		}
		buf = append(buf, '\n')
	}
	j.buf = buf
	if j.f == nil {
		return fmt.Errorf("feedback: journal %s is closed", j.path)
	}
	if j.cfg.MaxBytes > 0 {
		for line := 0; line < len(buf); {
			n := bytes.IndexByte(buf[line:], '\n') + 1
			if size := j.size + int64(line); size > 0 && size+int64(n) > j.cfg.MaxBytes {
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

// writeLocked appends p to the active file. A write that fails part-way is
// cut off again, so the next batch does not start in mid-line.
func (j *Journal) writeLocked(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if n, err := j.f.Write(p); err != nil {
		if n > 0 {
			_ = j.f.Truncate(j.size) // best effort; ReadJournal surfaces what stays
		}
		return fmt.Errorf("feedback: journal write: %w", err)
	}
	j.writes.Add(1)
	j.size += int64(len(p))
	return nil
}

// rotateLocked writes tail — the lines of the batch in hand that still
// belong to the active file — renames that file to the next numbered slot,
// prunes rotated files beyond MaxFiles (oldest first) and starts a fresh
// active file. A failure mid-rotation degrades rather than disables: tail
// is cut off again, because its batch is about to be refused, and the path
// is reopened for append so later batches keep journaling (into an
// oversized or fresh file) instead of permanently returning "journal is
// closed".
func (j *Journal) rotateLocked(tail []byte) error {
	if err := j.writeLocked(tail); err != nil {
		return err
	}
	at, err := j.rotateFilesLocked()
	if err != nil {
		if len(tail) > 0 {
			_ = os.Truncate(at, j.size-int64(len(tail))) // best effort, as in writeLocked
		}
		j.reopenDegradedLocked()
	}
	return err
}

// rotateFilesLocked is the close/rename/prune/reopen step of rotation. It
// returns where the file that was active is now; on an error j.f is nil.
func (j *Journal) rotateFilesLocked() (string, error) {
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return j.path, fmt.Errorf("feedback: journal close: %w", err)
	}
	nums, err := rotatedJournalNums(j.path)
	if err != nil {
		return j.path, err
	}
	next := 1
	if len(nums) > 0 {
		next = nums[len(nums)-1] + 1
	}
	rotated := fmt.Sprintf("%s.%d", j.path, next)
	if err := os.Rename(j.path, rotated); err != nil {
		return j.path, fmt.Errorf("feedback: journal rotate: %w", err)
	}
	nums = append(nums, next)
	if j.cfg.MaxFiles > 0 {
		for len(nums) > j.cfg.MaxFiles {
			if err := os.Remove(fmt.Sprintf("%s.%d", j.path, nums[0])); err != nil {
				return rotated, fmt.Errorf("feedback: journal prune: %w", err)
			}
			nums = nums[1:]
		}
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return rotated, fmt.Errorf("feedback: journal rotate: %w", err)
	}
	j.f = f
	j.size = 0
	return rotated, nil
}

// reopenDegradedLocked best-effort reopens the journal path for append
// after a failed rotation. If the rename already happened the path comes
// back as a fresh file; otherwise appends continue into the oversized one.
// If even the reopen fails, j.f stays nil and AppendBatch keeps erroring.
func (j *Journal) reopenDegradedLocked() {
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	j.f = f
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

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// ReadJournal replays a journal into observations, in append order: any
// rotated files (`<path>.<n>`) oldest first, then the active file. Each
// line is a single-line JSON object that decodes to exactly the
// observation that was acknowledged: the codec's canonical shape as the
// client sent it or as AppendJSON wrote it, or (from AppendJSON's
// json.Marshal fallback) anything encoding/json reads. Invalid lines fail
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

// terminatedLines is bufio.ScanLines without its last rule: bytes after
// the final newline are dropped, not returned as a line.
func terminatedLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && bytes.IndexByte(data, '\n') < 0 {
		return len(data), nil, nil
	}
	return bufio.ScanLines(data, atEOF)
}

// readJournalFile appends one journal file's observations to out.
func readJournalFile(path string, dec *decoder, out []Observation) ([]Observation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("feedback: read journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sc.Split(terminatedLines)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		out = append(out, Observation{})
		o := &out[len(out)-1]
		if !dec.line(sc.Bytes(), o) {
			*o = Observation{}
			if err := json.Unmarshal(sc.Bytes(), o); err != nil {
				return nil, fmt.Errorf("feedback: journal %s line %d: %w", path, line, err)
			}
		}
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("feedback: journal %s line %d: %w", path, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("feedback: journal %s: %w", path, err)
	}
	return out, nil
}
