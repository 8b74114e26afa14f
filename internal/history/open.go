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
// truncate torn tails, re-roll every surviving segment, fold the rollup
// logs' aggregates for already-deleted segments into the persisted views,
// and rewrite both logs compacted. Crash-safe at every step — the logs
// are replaced atomically via rename, and a crash mid-recovery just means
// the next Open redoes the same deterministic work.
func (st *Store) recoverLocked() error {
	// 1. Read the rollup logs, keeping aggregates grouped per segment so
	// entries for segments that still exist (which are re-rolled from
	// their raw points below) can be discarded without double counting.
	levels := [2]*level{st.lv1m, st.lv1h}
	var logged [2]map[uint64][]rollupEntry
	for li, lv := range levels {
		// Read-only: the compacted rewrite below replaces the file, torn
		// tail and all.
		bySeg := make(map[uint64][]rollupEntry)
		err := applog.ScanBlocks(lv.logPath, rollupMagic, func(payload []byte) error {
			segID, entries, err := decodeRollupBlock(payload)
			if err != nil {
				return err
			}
			bySeg[segID] = append(bySeg[segID], entries...)
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		logged[li] = bySeg
	}

	// 2. Recover every segment on disk: truncate torn tails, collect
	// metadata, and recompute each segment's rollup contribution from its
	// raw points (deterministic, so re-rolling an already-rolled segment
	// reproduces the logged aggregates exactly).
	paths, err := filepath.Glob(filepath.Join(st.dir, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	sort.Strings(paths) // zero-padded ids: lexicographic == numeric
	type segRoll struct {
		meta segMeta
		by   [2]bucketSet // the segment's buckets per level
	}
	var segs []segRoll
	for _, path := range paths {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.log", &id); err != nil {
			return fmt.Errorf("history: unrecognized segment file %s", path)
		}
		sr := segRoll{meta: segMeta{id: id, path: path}}
		l, err := applog.Open(st.fs, path, segMagic, eachPoint(path, func(sid uint32, ts int64, bits uint64) {
			v := math.Float64frombits(bits)
			if sr.meta.points == 0 {
				sr.meta.minTs, sr.meta.maxTs = ts, ts
			} else {
				if ts < sr.meta.minTs {
					sr.meta.minTs = ts
				}
				if ts > sr.meta.maxTs {
					sr.meta.maxTs = ts
				}
			}
			sr.meta.points++
			for li, lv := range levels {
				sr.by[li].at(sid, alignDown(ts, lv.width)).add(v)
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
	for li, lv := range levels {
		historic := &historics[li]
		segIDs := make([]uint64, 0, len(logged[li]))
		for segID := range logged[li] {
			segIDs = append(segIDs, segID)
		}
		sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
		for _, segID := range segIDs {
			if exists[segID] {
				continue // superseded by the re-roll from raw points
			}
			for _, e := range logged[li][segID] {
				historic.merge(e.key.sid, e.b)
			}
		}
		// Raw points of these buckets are gone; their bucket end bounds
		// the high-water mark they imply.
		for _, r := range historic.runs {
			if n := len(r.buckets); n > 0 {
				st.hwm = max(st.hwm, r.buckets[n-1].Start+lv.width-1)
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
			entries := segs[i].by[li].entries()
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
