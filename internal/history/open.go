package history

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"

	"raqo/internal/applog"
)

// recoverLocked rebuilds the store's in-memory state from disk after Open:
// truncate torn tails, take each surviving segment's aggregates from the
// rollup logs or re-roll them from its raw points, fold the logs'
// aggregates for already-deleted segments into the persisted views, and
// rewrite both logs compacted. Crash-safe at every step — the logs are
// replaced atomically via rename, and a crash mid-recovery just means the
// next Open redoes the same deterministic work.
func (st *Store) recoverLocked() error {
	// 1. Read the rollup logs, keeping aggregates grouped per segment, with
	// the number of blocks each segment has in each log.
	levels := [2]*level{st.lv1m, st.lv1h}
	var logged [2]map[uint64]*loggedSeg
	for li, lv := range levels {
		// Read-only: the compacted rewrite below replaces the file, torn
		// tail and all.
		bySeg := make(map[uint64]*loggedSeg)
		err := applog.ScanBlocks(lv.logPath, rollupMagic, func(payload []byte) error {
			segID, entries, err := decodeRollupBlock(payload)
			if err != nil {
				return err
			}
			ls := bySeg[segID]
			if ls == nil {
				ls = new(loggedSeg)
				bySeg[segID] = ls
			}
			ls.entries = append(ls.entries, entries...)
			ls.blocks++
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		logged[li] = bySeg
	}

	// 2. Recover every segment on disk: truncate torn tails and collect
	// metadata. A segment's rollup contribution is its one block in each
	// log when those agree with its raw points (a sealed segment's, which
	// the seal wrote from the same points), and is re-rolled from the raw
	// points otherwise (an active segment a crash left unsealed, or a block
	// torn, missing from one log, duplicated or in disagreement). Rolling
	// is deterministic, so both give the same buckets.
	paths, err := filepath.Glob(filepath.Join(st.dir, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	sort.Strings(paths) // zero-padded ids: lexicographic == numeric
	var segs []segRoll
	for _, path := range paths {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.log", &id); err != nil {
			return fmt.Errorf("history: unrecognized segment file %s", path)
		}
		sr := segRoll{meta: segMeta{id: id, path: path}}
		logs := [2]*loggedSeg{logged[0][id], logged[1][id]}
		rollNow := logs[0] == nil || logs[1] == nil // nothing to take: roll while scanning
		var by [2]bucketSet
		roll := func(sid uint32, ts int64, bits uint64) {
			v := math.Float64frombits(bits)
			k := sketchKey(v) // one logarithm for both levels
			for li, lv := range levels {
				by[li].at(sid, alignDown(ts, lv.width)).addKey(v, k)
			}
		}
		l, err := applog.Open(st.fs, path, segMagic, eachPoint(path, func(sid uint32, ts int64, bits uint64) {
			sr.meta.observe(ts)
			if rollNow {
				roll(sid, ts, bits)
			}
		}))
		if err != nil {
			return err
		}
		if err := l.Close(); err != nil {
			return fmt.Errorf("history: %w", err)
		}
		if sr.meta.points == 0 {
			// An interrupted create (or fully torn segment) holds no
			// acknowledged data; drop the file.
			if err := st.fs.Remove(path); err != nil {
				return fmt.Errorf("history: %w", err)
			}
			continue
		}
		fromLogs := !rollNow && st.lv1m.agrees(logs[0], sr.meta) && st.lv1h.agrees(logs[1], sr.meta)
		if !fromLogs && !rollNow {
			// The scan above only counted the points; read them again.
			if err := applog.ScanBlocks(path, segMagic, eachPoint(path, roll)); err != nil {
				return fmt.Errorf("history: %w", err)
			}
		}
		for li := range levels {
			if fromLogs {
				sr.entries[li] = logs[li].entries
			} else {
				sr.entries[li] = by[li].entries()
			}
		}
		if !fromLogs {
			st.rerolled += sr.meta.points
		}
		sr.meta.bytes = l.Size()
		segs = append(segs, sr)
		if id >= st.activeID {
			st.activeID = id + 1
		}
		if sr.meta.maxTs > st.hwm {
			st.hwm = sr.meta.maxTs
		}
		st.sealed = append(st.sealed, sr.meta)
	}

	// 3. Fold logged aggregates of segments no longer on disk (raw
	// retention beat us to them) into per-level historic views, then
	// rewrite each log compacted: one block of merged historic buckets
	// plus one block per surviving segment.
	exists := make(map[uint64]bool, len(segs))
	for _, sr := range segs {
		exists[sr.meta.id] = true
	}
	var historics [2]bucketSet
	for li := range levels {
		historic := &historics[li]
		segIDs := make([]uint64, 0, len(logged[li]))
		for segID := range logged[li] {
			segIDs = append(segIDs, segID)
		}
		sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
		for _, segID := range segIDs {
			if exists[segID] {
				continue // the segment's own block is written below
			}
			for _, e := range logged[li][segID].entries {
				historic.merge(e.key.sid, e.b)
			}
		}
		// Raw points of these buckets are gone; a bucket's start is the
		// newest time its points are known to have reached. (Its end
		// would be up to width-1 seconds past any of them, and the raw
		// retention below would then delete segments still inside it.)
		for _, r := range historic.runs {
			if n := len(r.buckets); n > 0 {
				st.hwm = max(st.hwm, r.buckets[n-1].Start)
			}
		}
	}
	for li, lv := range levels {
		historic := &historics[li]
		historic.trimBefore(lv.expiry(st.hwm))

		// The compacted log is written beside the old one and renamed over
		// it, then stays open as the level's append log.
		l, err := applog.Create(st.fs, lv.logPath+".tmp", rollupMagic)
		if err != nil {
			return fmt.Errorf("history: %w", err)
		}
		lv.log = l // closed by Open's error path from here on
		if historic.n > 0 {
			if err := l.Append(encodeRollupBlock(compactedSegID, historic.entries())); err != nil {
				return fmt.Errorf("history: %w", err)
			}
		}
		// In-memory persisted view = historic + every surviving segment,
		// whose buckets it takes over once they are in the file.
		lv.persisted = *historic
		for i := range segs {
			entries := segs[i].entries[li]
			if len(entries) > 0 {
				if err := l.Append(encodeRollupBlock(segs[i].meta.id, entries)); err != nil {
					return fmt.Errorf("history: %w", err)
				}
			}
			for _, e := range entries {
				lv.persisted.merge(e.key.sid, e.b)
			}
			lv.rolled[segs[i].meta.id] = true
		}
		if err := l.Rename(lv.logPath); err != nil {
			return fmt.Errorf("history: %w", err)
		}
	}

	return st.retainLocked()
}

// loggedSeg is what one rollup log holds for one segment: the entries of
// every block tagged with its id, and how many blocks that was.
type loggedSeg struct {
	entries []rollupEntry
	blocks  int
}

// segRoll is one surviving segment's metadata and its rollup entries per
// level, in (series, start) order.
type segRoll struct {
	meta    segMeta
	entries [2][]rollupEntry
}

// observe counts one recovered point at ts into the segment's metadata.
func (m *segMeta) observe(ts int64) {
	if m.points == 0 || ts < m.minTs {
		m.minTs = ts
	}
	if m.points == 0 || ts > m.maxTs {
		m.maxTs = ts
	}
	m.points++
}

// agrees says whether ls, what the level's log holds for the segment m
// describes, can stand in for re-rolling the segment's raw points: one
// block, whose entries are in strictly ascending (series, start) order,
// start on the level's grid inside the segment's time span, and count
// exactly the segment's points. The seal writes such a block; a torn,
// duplicated or foreign one fails the check.
func (lv *level) agrees(ls *loggedSeg, m segMeta) bool {
	if ls.blocks != 1 {
		return false
	}
	lo := alignDown(m.minTs, lv.width)
	var n int64
	for i, e := range ls.entries {
		k := e.key
		if k.start < lo || k.start > m.maxTs || alignDown(k.start, lv.width) != k.start || e.b.Count <= 0 {
			return false
		}
		if i > 0 {
			if p := ls.entries[i-1].key; p.sid > k.sid || p.sid == k.sid && p.start >= k.start {
				return false
			}
		}
		n += e.b.Count
	}
	return n == m.points
}
