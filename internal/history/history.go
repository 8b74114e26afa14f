// Package history is the embedded time-series telemetry store behind the
// RAQO service's long-horizon observability: an append-only, time-bucketed
// store that keeps optimizer and feedback signals alive across restarts
// and far beyond the in-memory rings the rest of the system uses. The
// paper's continuous-re-optimization loop only works in production if the
// evidence it re-optimizes against survives longer than a process — drift
// detection against day-scale baselines needs days of durable history.
//
// Layout of a store directory:
//
//   - series.idx      series name → id registry (text, append-only)
//   - seg-<n>.log     raw points in checksummed blocks (segment.go)
//   - rollup-1m.log   per-sealed-segment 1-minute aggregates (rollup.go)
//   - rollup-1h.log   per-sealed-segment 1-hour aggregates
//
// The durability contract is journal-before-ack at Commit granularity:
// Append stages points in memory, Commit writes them as one checksummed
// block and only then are they acknowledged. A kill -9 can tear at most
// the final in-flight block; Open truncates the torn tail, so an
// acknowledged point is never lost and a torn one is never served. Sealed
// segments have their rollup aggregates appended to the rollup logs
// *before* raw retention may delete them, so downsampled history outlives
// the raw points it summarizes.
//
// All timestamps are injected by the caller (unix seconds, wall or
// virtual) — the package never reads the wall clock (enforced by the
// raqolint `clock` rule), which is what lets days-long virtual-clock
// workloads exercise retention and rollups deterministically in tests.
// Retention is driven by the committed high-water mark, not by host time.
package history

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Config tunes a Store. Zero values select the documented defaults.
type Config struct {
	// SegmentMaxBytes seals the active segment once it grows past this
	// size; 0 selects 4 MiB. Sealed segments are immutable and are the
	// unit of raw retention.
	SegmentMaxBytes int64
	// RawRetention is how many seconds of raw points are kept behind the
	// committed high-water mark; 0 selects 6h. Only whole sealed segments
	// whose newest point has aged out (and whose rollups are durable) are
	// deleted.
	RawRetention int64
	// Retention1m / Retention1h bound the rollup levels; 0 selects 7 days
	// and 90 days respectively.
	Retention1m int64
	Retention1h int64
}

// Store defaults.
const (
	DefaultSegmentMaxBytes = 4 << 20
	DefaultRawRetention    = 6 * 3600
	DefaultRetention1m     = 7 * 24 * 3600
	DefaultRetention1h     = 90 * 24 * 3600
)

func (c Config) withDefaults() Config {
	if c.SegmentMaxBytes <= 0 {
		c.SegmentMaxBytes = DefaultSegmentMaxBytes
	}
	if c.RawRetention <= 0 {
		c.RawRetention = DefaultRawRetention
	}
	if c.Retention1m <= 0 {
		c.Retention1m = DefaultRetention1m
	}
	if c.Retention1h <= 0 {
		c.Retention1h = DefaultRetention1h
	}
	return c
}

// Series is a registered time series: a stable numeric id for the hot
// append path plus cached current-bucket pointers so in-order appends
// update rollups without a lookup.
type Series struct {
	id   uint32
	name string

	cur1m *Bucket
	cur1h *Bucket
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// segMeta describes one sealed, immutable segment.
type segMeta struct {
	id     uint64
	path   string
	minTs  int64
	maxTs  int64
	points int64
	bytes  int64
}

// Store is the embedded time-series store. All methods are safe for
// concurrent use; appends stage under the lock and become durable (and
// queryable) at Commit.
type Store struct {
	mu  sync.Mutex
	dir string // immutable after Open
	cfg Config // immutable after Open

	series  []*Series          // guarded by mu
	byName  map[string]*Series // guarded by mu
	seriesF *os.File           // guarded by mu

	active      *os.File // guarded by mu
	activeID    uint64   // guarded by mu
	activePath  string   // guarded by mu
	activeSize  int64    // guarded by mu; committed bytes, including magic
	activeMin   int64    // guarded by mu
	activeMax   int64    // guarded by mu
	activeCount int64    // guarded by mu

	pending      []byte               // guarded by mu; staged point records, not yet durable
	pendingCount int64                // guarded by mu
	pendingMin   int64                // guarded by mu
	pendingMax   int64                // guarded by mu
	hdr          [blockHeaderLen]byte // guarded by mu

	sealed []segMeta // guarded by mu
	lv1m   *level    // pointer immutable after Open; contents guarded by mu
	lv1h   *level    // pointer immutable after Open; contents guarded by mu

	hwm       int64 // guarded by mu; newest committed timestamp
	committed int64 // guarded by mu; points ever committed
	sealSeq   int64 // guarded by mu; segments ever sealed
	retained  int64 // guarded by mu; segments deleted by retention
	err       error // guarded by mu; sticky background error (Record path), surfaced at Commit
}

// Open opens (creating as needed) a store rooted at dir, recovering any
// torn tail from a previous crash and compacting the rollup logs.
func Open(dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	st := &Store{
		dir:    dir,
		cfg:    cfg,
		byName: make(map[string]*Series),
		lv1m:   newLevel(60, cfg.Retention1m, filepath.Join(dir, "rollup-1m.log")),
		lv1h:   newLevel(3600, cfg.Retention1h, filepath.Join(dir, "rollup-1h.log")),
	}
	// The lock is uncontended here (st is unpublished), but taking it keeps
	// the *Locked helpers' contract literal.
	st.mu.Lock()
	err := st.loadSeriesLocked()
	if err == nil {
		err = st.recoverLocked()
	}
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return st, nil
}

// seriesPath is the name→id registry file.
func (st *Store) seriesPath() string { return filepath.Join(st.dir, "series.idx") }

// loadSeries reads the registry, truncating a torn final line, and opens
// it for appending.
func (st *Store) loadSeriesLocked() error {
	path := st.seriesPath()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("history: %w", err)
	}
	good := 0
	for len(data) > good {
		nl := strings.IndexByte(string(data[good:]), '\n')
		if nl < 0 {
			break // torn final line: a crash mid-registration
		}
		line := string(data[good : good+nl])
		good += nl + 1
		id, name, ok := strings.Cut(line, " ")
		idv, err := strconv.ParseUint(id, 10, 32)
		if !ok || err != nil || name == "" {
			return fmt.Errorf("history: %s: bad series line %q", path, line)
		}
		if int(idv) != len(st.series) {
			return fmt.Errorf("history: %s: series id %d out of order", path, idv)
		}
		s := &Series{id: uint32(idv), name: name}
		st.series = append(st.series, s)
		st.byName[name] = s
	}
	if good < len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("history: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	st.seriesF = f
	return nil
}

// Series returns (registering on first use) the handle for name. The
// registration is durable before the handle is returned.
func (st *Store) Series(name string) (*Series, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seriesLocked(name)
}

func (st *Store) seriesLocked(name string) (*Series, error) {
	if s, ok := st.byName[name]; ok {
		return s, nil
	}
	if name == "" {
		return nil, fmt.Errorf("history: empty series name")
	}
	if strings.ContainsAny(name, " \n") {
		return nil, fmt.Errorf("history: series name %q may not contain spaces or newlines", name)
	}
	s := &Series{id: uint32(len(st.series)), name: name}
	if _, err := fmt.Fprintf(st.seriesF, "%d %s\n", s.id, s.name); err != nil {
		return nil, fmt.Errorf("history: registering series %s: %w", name, err)
	}
	st.series = append(st.series, s)
	st.byName[name] = s
	return s, nil
}

// SeriesNames lists the registered series, sorted.
func (st *Store) SeriesNames() []string {
	st.mu.Lock()
	out := make([]string, 0, len(st.series))
	for _, s := range st.series {
		out = append(out, s.name)
	}
	st.mu.Unlock()
	sort.Strings(out)
	return out
}

// Append stages one point. It becomes durable — and queryable — at the
// next Commit. The hot path is allocation-free after warmup: one staged
// 20-byte record; rollup buckets are folded in at Commit, after the
// block write succeeds.
//
//raqo:noalloc
func (st *Store) Append(s *Series, ts int64, v float64) {
	st.mu.Lock()
	st.appendLocked(s, ts, v)
	st.mu.Unlock()
}

//raqo:noalloc
func (st *Store) appendLocked(s *Series, ts int64, v float64) {
	n := len(st.pending)
	st.pending = append(st.pending, make([]byte, pointRecordLen)...)
	putPoint(st.pending[n:], s.id, ts, math.Float64bits(v))
	if st.pendingCount == 0 {
		st.pendingMin, st.pendingMax = ts, ts
	} else {
		if ts < st.pendingMin {
			st.pendingMin = ts
		}
		if ts > st.pendingMax {
			st.pendingMax = ts
		}
	}
	st.pendingCount++
}

// Record stages one point on a name-keyed series — the recorder interface
// internal/feedback and the telemetry gather loop stream through.
// Registration errors stick and surface at the next Commit.
func (st *Store) Record(name string, ts int64, v float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, err := st.seriesLocked(name)
	if err != nil {
		if st.err == nil {
			st.err = err
		}
		return
	}
	st.appendLocked(s, ts, v)
}

// Commit makes every staged point durable as one checksummed block and
// acknowledges it: after Commit returns nil the points survive kill -9.
// Commit also advances the high-water mark, seals oversized segments and
// applies retention.
func (st *Store) Commit() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.commitLocked()
}

func (st *Store) commitLocked() error {
	if st.err != nil {
		err := st.err
		st.err = nil
		return err
	}
	if st.pendingCount == 0 {
		return nil
	}
	if st.active == nil {
		if err := st.openActiveLocked(); err != nil {
			return err
		}
	}
	if err := appendBlock(st.active, &st.hdr, st.pending); err != nil {
		return fmt.Errorf("history: segment %s: %w", st.activePath, err)
	}
	// Durability first, visibility second: fold the now-committed points
	// into the rollup buckets only after the block write succeeded, so
	// queries never see a point that a crash could take back.
	for off := 0; off+pointRecordLen <= len(st.pending); off += pointRecordLen {
		sid, ts, bits := getPoint(st.pending[off:])
		v := math.Float64frombits(bits)
		s := st.series[sid]
		st.lv1m.bump(sid, &s.cur1m, ts, v)
		st.lv1h.bump(sid, &s.cur1h, ts, v)
	}
	if st.activeCount == 0 {
		st.activeMin, st.activeMax = st.pendingMin, st.pendingMax
	} else {
		if st.pendingMin < st.activeMin {
			st.activeMin = st.pendingMin
		}
		if st.pendingMax > st.activeMax {
			st.activeMax = st.pendingMax
		}
	}
	st.activeSize += int64(blockHeaderLen) + int64(len(st.pending))
	st.activeCount += st.pendingCount
	st.committed += st.pendingCount
	if st.pendingMax > st.hwm {
		st.hwm = st.pendingMax
	}
	st.pending = st.pending[:0]
	st.pendingCount = 0

	if st.activeSize >= st.cfg.SegmentMaxBytes {
		if err := st.sealLocked(); err != nil {
			return err
		}
	}
	return st.retainLocked()
}

// segPath names segment id.
func (st *Store) segPath(id uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("seg-%08d.log", id))
}

// openActive starts a fresh active segment.
func (st *Store) openActiveLocked() error {
	st.activePath = st.segPath(st.activeID)
	f, err := os.OpenFile(st.activePath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if err := writeMagic(f, segMagic); err != nil {
		f.Close()
		return fmt.Errorf("history: %w", err)
	}
	st.active = f
	st.activeSize = int64(len(segMagic))
	st.activeCount = 0
	return nil
}

// sealLocked closes the active segment, writes its rollup aggregates to
// the logs (before raw retention may ever delete it) and starts a new one.
func (st *Store) sealLocked() error {
	if st.active == nil || st.activeCount == 0 {
		return nil
	}
	if err := st.active.Close(); err != nil {
		return fmt.Errorf("history: sealing %s: %w", st.activePath, err)
	}
	st.sealed = append(st.sealed, segMeta{
		id:     st.activeID,
		path:   st.activePath,
		minTs:  st.activeMin,
		maxTs:  st.activeMax,
		points: st.activeCount,
		bytes:  st.activeSize,
	})
	if err := st.rollSegmentLocked(st.activeID); err != nil {
		return err
	}
	st.active = nil
	// The sealed segment's points and bytes now live in st.sealed; reset
	// the active counters so Stats never counts them twice while no new
	// active segment exists.
	st.activeCount = 0
	st.activeSize = 0
	st.activeID++
	st.sealSeq++
	return nil
}

// rollSegment makes the just-sealed segment's aggregates durable in both
// rollup logs and moves them into the persisted views.
func (st *Store) rollSegmentLocked(segID uint64) error {
	for _, lv := range [2]*level{st.lv1m, st.lv1h} {
		if lv.logF == nil {
			if err := st.openRollupLogLocked(lv); err != nil {
				return err
			}
		}
		if err := lv.appendSegment(segID); err != nil {
			return err
		}
	}
	for _, s := range st.series {
		s.cur1m, s.cur1h = nil, nil
	}
	return nil
}

// openRollupLog opens (creating with magic if empty) a level's log.
func (st *Store) openRollupLogLocked(lv *level) error {
	f, err := os.OpenFile(lv.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("history: %w", err)
	}
	if info.Size() == 0 {
		if err := writeMagic(f, rollupMagic); err != nil {
			f.Close()
			return fmt.Errorf("history: %w", err)
		}
	}
	lv.logF = f
	return nil
}

// retainLocked deletes sealed segments that have aged out of raw
// retention (their rollups are durable by construction: sealing writes
// them first) and sweeps expired rollup buckets.
func (st *Store) retainLocked() error {
	cutoff := st.hwm - st.cfg.RawRetention
	for len(st.sealed) > 0 && st.sealed[0].maxTs < cutoff {
		m := st.sealed[0]
		if !st.lv1m.rolled[m.id] || !st.lv1h.rolled[m.id] {
			return fmt.Errorf("history: segment %d reached retention without durable rollups", m.id)
		}
		if err := os.Remove(m.path); err != nil {
			return fmt.Errorf("history: retention: %w", err)
		}
		st.sealed = st.sealed[1:]
		st.retained++
	}
	st.lv1m.sweep(st.hwm)
	st.lv1h.sweep(st.hwm)
	return nil
}

// Close commits staged points and closes every file.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	err := st.commitLocked()
	if st.active != nil {
		if cerr := st.active.Close(); err == nil {
			err = cerr
		}
		st.active = nil
	}
	for _, lv := range [2]*level{st.lv1m, st.lv1h} {
		if lv.logF != nil {
			if cerr := lv.logF.Close(); err == nil {
				err = cerr
			}
			lv.logF = nil
		}
	}
	if st.seriesF != nil {
		if cerr := st.seriesF.Close(); err == nil {
			err = cerr
		}
		st.seriesF = nil
	}
	return err
}

// Stats is a point-in-time snapshot of the store's shape.
type Stats struct {
	Series         int
	CommittedTotal int64 // points committed this process lifetime
	StoredPoints   int64 // raw points currently on disk (sealed + active)
	Segments       int   // sealed segments on disk
	SegmentBytes   int64 // sealed + active bytes
	Buckets1m      int
	Buckets1h      int
	HighWater      int64
	SealedTotal    int64
	RetainedTotal  int64 // segments deleted by retention
}

// Stats snapshots the store.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		Series:         len(st.series),
		CommittedTotal: st.committed,
		StoredPoints:   st.activeCount,
		Segments:       len(st.sealed),
		SegmentBytes:   st.activeSize,
		Buckets1m:      st.lv1m.persisted.n + st.lv1m.active.n,
		Buckets1h:      st.lv1h.persisted.n + st.lv1h.active.n,
		HighWater:      st.hwm,
		SealedTotal:    st.sealSeq,
		RetainedTotal:  st.retained,
	}
	for _, m := range st.sealed {
		s.StoredPoints += m.points
		s.SegmentBytes += m.bytes
	}
	return s
}
