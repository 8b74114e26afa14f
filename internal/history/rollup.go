package history

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
)

// Bucket is one downsampled aggregate: every point of one series whose
// timestamp falls in [Start, Start+width) folded into count/sum/min/max
// plus a quantile sketch. Buckets of the same (series, window) merge
// additively, so rollups of rollups equal rollups of the raw points.
type Bucket struct {
	Start int64
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	sk    Sketch
}

// add folds one value into the bucket.
func (b *Bucket) add(v float64) {
	if b.Count == 0 || v < b.Min {
		b.Min = v
	}
	if b.Count == 0 || v > b.Max {
		b.Max = v
	}
	b.Count++
	b.Sum += v
	b.sk.Add(v)
}

// merge folds another bucket of the same series/window into b.
func (b *Bucket) merge(o *Bucket) {
	if o.Count == 0 {
		return
	}
	if b.Count == 0 || o.Min < b.Min {
		b.Min = o.Min
	}
	if b.Count == 0 || o.Max > b.Max {
		b.Max = o.Max
	}
	b.Count += o.Count
	b.Sum += o.Sum
	b.sk.Merge(&o.sk)
}

// Mean returns Sum/Count (0 when empty).
func (b *Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// Quantile returns the bucket's q-quantile from its sketch (~2% relative
// error; 0 when empty).
func (b *Bucket) Quantile(q float64) float64 { return b.sk.Quantile(q) }

// Quantiles overwrites each qs[i] with the bucket's qs[i]-quantile and
// returns qs. Ascending qs — p50, p90, p99 — cost one pass over the sketch
// and, called with literal arguments, no allocation.
func (b *Bucket) Quantiles(qs ...float64) []float64 {
	b.sk.quantiles(qs)
	return qs
}

// bucketKey addresses one bucket within a level.
type bucketKey struct {
	sid   uint32
	start int64
}

// rollupEntry pairs a key with its bucket for serialization.
type rollupEntry struct {
	key bucketKey
	b   *Bucket
}

// seriesRun is one series' buckets within a bucketSet, ascending by Start.
type seriesRun struct {
	sid     uint32
	buckets []*Bucket
}

// bucketSet holds rollup buckets in (series id, start) order: the order
// log blocks are written in, and within a series the order range reads,
// retention and query merging want. A point arriving in time order appends
// at its run's tail; anything else is a binary search and an insert.
type bucketSet struct {
	runs []seriesRun // ascending sid
	n    int         // buckets held
}

// find returns the position of sid's run, or where it belongs.
func (bs *bucketSet) find(sid uint32) (int, bool) {
	i := sort.Search(len(bs.runs), func(i int) bool { return bs.runs[i].sid >= sid })
	return i, i < len(bs.runs) && bs.runs[i].sid == sid
}

// locate returns sid's run (created if absent) and where start sits, or
// belongs, in it.
func (bs *bucketSet) locate(sid uint32, start int64) (r *seriesRun, k int, found bool) {
	i, ok := bs.find(sid)
	if !ok {
		bs.runs = append(bs.runs, seriesRun{})
		copy(bs.runs[i+1:], bs.runs[i:])
		bs.runs[i] = seriesRun{sid: sid}
	}
	r = &bs.runs[i]
	k = len(r.buckets)
	if k == 0 || r.buckets[k-1].Start < start {
		return r, k, false
	}
	k = sort.Search(k, func(j int) bool { return r.buckets[j].Start >= start })
	return r, k, r.buckets[k].Start == start
}

// insert places b at position k of r.
func (bs *bucketSet) insert(r *seriesRun, k int, b *Bucket) {
	r.buckets = append(r.buckets, nil)
	copy(r.buckets[k+1:], r.buckets[k:])
	r.buckets[k] = b
	bs.n++
}

// at returns the bucket of (sid, start), adding an empty one if absent.
func (bs *bucketSet) at(sid uint32, start int64) *Bucket {
	r, k, found := bs.locate(sid, start)
	if !found {
		bs.insert(r, k, &Bucket{Start: start})
	}
	return r.buckets[k]
}

// merge folds b into the bucket at (sid, b.Start); if there is none the
// set takes b itself, so the caller must be done with it.
func (bs *bucketSet) merge(sid uint32, b *Bucket) {
	if r, k, found := bs.locate(sid, b.Start); found {
		r.buckets[k].merge(b)
	} else {
		bs.insert(r, k, b)
	}
}

// span returns sid's buckets with lo <= Start < hi, ascending. The slice
// aliases the set.
func (bs *bucketSet) span(sid uint32, lo, hi int64) []*Bucket {
	i, ok := bs.find(sid)
	if !ok {
		return nil
	}
	b := bs.runs[i].buckets
	b = b[sort.Search(len(b), func(j int) bool { return b[j].Start >= lo }):]
	return b[:sort.Search(len(b), func(j int) bool { return b[j].Start >= hi })]
}

// trimBefore drops every bucket that starts before start: a prefix of
// each run. The slots are zeroed so the buckets can be collected; the
// array itself is reclaimed when append next moves the run.
func (bs *bucketSet) trimBefore(start int64) {
	for i := range bs.runs {
		r := &bs.runs[i]
		k := sort.Search(len(r.buckets), func(j int) bool { return r.buckets[j].Start >= start })
		clear(r.buckets[:k])
		r.buckets = r.buckets[k:]
		bs.n -= k
	}
}

// entries lists the set in (series, start) order, so log blocks are
// byte-deterministic.
func (bs *bucketSet) entries() []rollupEntry {
	out := make([]rollupEntry, 0, bs.n)
	for _, r := range bs.runs {
		for _, b := range r.buckets {
			out = append(out, rollupEntry{bucketKey{r.sid, b.Start}, b})
		}
	}
	return out
}

// level is one rollup resolution: the persisted buckets (durable in the
// level's log, covering sealed segments — including segments raw
// retention has already deleted) plus the active segment's in-progress
// buckets, which move to the log when the segment seals.
type level struct {
	width     int64 // bucket width in seconds (60 or 3600)
	retention int64 // how far behind the high-water mark buckets are kept
	logPath   string
	logF      *os.File

	persisted bucketSet
	active    bucketSet
	rolled    map[uint64]bool // segment ids already durable in the log
	lastSweep int64
}

func newLevel(width, retention int64, logPath string) *level {
	return &level{
		width:     width,
		retention: retention,
		logPath:   logPath,
		rolled:    make(map[uint64]bool),
	}
}

// bump folds one active-segment point into the level. The caller passes
// the series' cached current-bucket pointer so in-order appends skip the
// lookup entirely; the cache is invalidated on segment seal.
func (lv *level) bump(sid uint32, cur **Bucket, ts int64, v float64) {
	start := alignDown(ts, lv.width)
	if b := *cur; b == nil || b.Start != start {
		*cur = lv.active.at(sid, start)
	}
	(*cur).add(v)
}

// compactedSegID tags log blocks holding the merged aggregates of
// segments that no longer exist on disk (written by open-time compaction).
const compactedSegID = ^uint64(0)

// encodeRollupBlock serializes one segment's bucket aggregates:
//
//	[u64 segment id][u32 entry count] then per entry
//	[u32 series id][i64 bucket start][i64 count][f64 sum][f64 min][f64 max]
//	[i64 sketch zero count][u16 sketch buckets] then per sketch bucket
//	[i16 index][i64 count]
func encodeRollupBlock(segID uint64, entries []rollupEntry) []byte {
	size := 12
	for _, e := range entries {
		size += entryFixedLen + e.b.sk.populated()*sketchSlotLen
	}
	le := binary.LittleEndian
	buf := le.AppendUint32(le.AppendUint64(make([]byte, 0, size), segID), uint32(len(entries)))
	for _, e := range entries {
		buf = le.AppendUint32(buf, e.key.sid)
		buf = le.AppendUint64(buf, uint64(e.key.start))
		buf = le.AppendUint64(buf, uint64(e.b.Count))
		buf = le.AppendUint64(buf, math.Float64bits(e.b.Sum))
		buf = le.AppendUint64(buf, math.Float64bits(e.b.Min))
		buf = le.AppendUint64(buf, math.Float64bits(e.b.Max))
		sk := &e.b.sk
		buf = le.AppendUint64(buf, uint64(sk.zero))
		// Only the populated slots of the window go to disk, ascending.
		buf = le.AppendUint16(buf, uint16(sk.populated()))
		for i, c := range sk.counts {
			if c != 0 {
				buf = le.AppendUint16(buf, uint16(sk.lo+int16(i)))
				buf = le.AppendUint64(buf, uint64(c))
			}
		}
	}
	return buf
}

// Fixed portion of one entry: 4 sid + 8 start + 8 count + 8 sum + 8 min +
// 8 max + 8 sketch zero + 2 sketch bucket count = 54 bytes. (An entry
// whose sketch holds only the zero bucket is exactly this long, so
// over-asking in the decoder would reject valid blocks at the tail.) Each
// sketch bucket after it is 2 index + 8 count bytes.
const (
	entryFixedLen = 54
	sketchSlotLen = 10
)

// decodeRollupBlock parses one log block into (segID, entries). The bytes
// passed a checksum but are otherwise untrusted: nothing is allocated that
// the payload's own length does not pay for, beyond one sketch window per
// entry, and a sketch is accepted only in the shape encodeRollupBlock
// writes — indices inside the clamp, strictly ascending, counts positive.
func decodeRollupBlock(payload []byte) (uint64, []rollupEntry, error) {
	le := binary.LittleEndian
	if len(payload) < 12 {
		return 0, nil, fmt.Errorf("history: rollup block truncated at offset 0")
	}
	segID, count, off := le.Uint64(payload), int(le.Uint32(payload[8:])), 12
	if count > (len(payload)-off)/entryFixedLen {
		return 0, nil, fmt.Errorf("history: rollup block truncated: %d entries declared in %d bytes", count, len(payload))
	}
	entries := make([]rollupEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(payload)-off < entryFixedLen {
			return 0, nil, fmt.Errorf("history: rollup block truncated at offset %d", off)
		}
		e := payload[off:]
		key := bucketKey{sid: le.Uint32(e), start: int64(le.Uint64(e[4:]))}
		b := &Bucket{
			Start: key.start,
			Count: int64(le.Uint64(e[12:])),
			Sum:   math.Float64frombits(le.Uint64(e[20:])),
			Min:   math.Float64frombits(le.Uint64(e[28:])),
			Max:   math.Float64frombits(le.Uint64(e[36:])),
		}
		b.sk.zero = int64(le.Uint64(e[44:]))
		b.sk.total = b.sk.zero
		n := int(le.Uint16(e[52:]))
		off += entryFixedLen
		if len(payload)-off < n*sketchSlotLen {
			return 0, nil, fmt.Errorf("history: rollup block truncated at offset %d", off)
		}
		if n > 0 {
			first, last := int16(le.Uint16(payload[off:])), int16(le.Uint16(payload[off+(n-1)*sketchSlotLen:]))
			if first < sketchMinIdx || last > sketchMaxIdx || first > last {
				return 0, nil, fmt.Errorf("history: rollup block corrupt at offset %d: sketch indices %d..%d", off, first, last)
			}
			b.sk.lo = first
			b.sk.counts = make([]int64, int(last-first)+1)
			for prev := int(first) - 1; n > 0; n, off = n-1, off+sketchSlotLen {
				idx, c := int16(le.Uint16(payload[off:])), int64(le.Uint64(payload[off+2:]))
				if int(idx) <= prev || idx > last || c <= 0 {
					return 0, nil, fmt.Errorf("history: rollup block corrupt at offset %d: sketch bucket %d count %d", off, idx, c)
				}
				b.sk.counts[idx-first] = c
				b.sk.total += c
				prev = int(idx)
			}
		}
		entries = append(entries, rollupEntry{key, b})
	}
	return segID, entries, nil
}

// appendSegment writes the just-sealed segment's active buckets to the log
// (durability first), then moves them into the persisted view and marks
// the segment rolled.
func (lv *level) appendSegment(segID uint64) error {
	entries := lv.active.entries()
	if len(entries) > 0 {
		var hdr [blockHeaderLen]byte
		if err := appendBlock(lv.logF, &hdr, encodeRollupBlock(segID, entries)); err != nil {
			return fmt.Errorf("history: rollup log %s: %w", lv.logPath, err)
		}
	}
	for _, e := range entries {
		lv.persisted.merge(e.key.sid, e.b)
	}
	lv.active = bucketSet{}
	lv.rolled[segID] = true
	return nil
}

// sweep drops persisted buckets that have aged out of the level's
// retention, at most once per bucket width of high-water-mark progress.
func (lv *level) sweep(hwm int64) {
	if lv.retention <= 0 || hwm < lv.lastSweep+lv.width {
		return
	}
	lv.lastSweep = hwm
	lv.persisted.trimBefore(lv.expiry(hwm))
}

// expiry is the start of the oldest bucket the level still keeps when the
// high-water mark is hwm: a bucket goes once its end is at or behind
// hwm - retention.
func (lv *level) expiry(hwm int64) int64 { return hwm - lv.retention - lv.width + 1 }
