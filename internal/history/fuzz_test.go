package history

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// allocatedBy reports the heap bytes fn allocated (single-goroutine tests
// only: the counter is process-wide).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what decoding n untrusted bytes may allocate: the
// entry slice, one Bucket per 54 bytes and at most one full 2161-counter
// window per 64 — a fixed multiple of the input, plus slack for the runtime.
func decodeAllocBound(n int) uint64 { return 64<<10 + 512*uint64(n) }

// sketchBlock hand-assembles a one-entry rollup block whose sketch holds
// the given (index, count) pairs as written — including shapes
// encodeRollupBlock never produces.
func sketchBlock(idxs []int16, counts []int64) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, 3) // segment id
	buf = binary.LittleEndian.AppendUint32(buf, 1)  // entries
	buf = binary.LittleEndian.AppendUint32(buf, 7)  // series id
	buf = binary.LittleEndian.AppendUint64(buf, 60) // start
	buf = binary.LittleEndian.AppendUint64(buf, 2)  // count
	buf = append(buf, make([]byte, 24)...)          // sum, min, max
	buf = binary.LittleEndian.AppendUint64(buf, 0)  // sketch zero count
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(idxs)))
	for i, idx := range idxs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(idx))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(counts[i]))
	}
	return buf
}

// hostileBlocks are checksummed-but-wrong payloads the decoder must refuse
// cheaply. Each is also a named FuzzRollupBlock corpus entry.
var hostileBlocks = map[string][]byte{
	// 12 bytes declaring 2^32-1 entries: once a ~100 GB make.
	"count-overflow":    {1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
	"idx-below-clamp":   sketchBlock([]int16{sketchMinIdx - 1, 0}, []int64{1, 1}),
	"idx-above-clamp":   sketchBlock([]int16{0, sketchMaxIdx + 1}, []int64{1, 1}),
	"idx-full-int16":    sketchBlock([]int16{math.MinInt16, math.MaxInt16}, []int64{1, 1}),
	"idx-descending":    sketchBlock([]int16{5, 4}, []int64{1, 1}),
	"idx-repeated":      sketchBlock([]int16{5, 5}, []int64{1, 1}),
	"idx-middle-beyond": sketchBlock([]int16{1, 900, 3}, []int64{1, 1, 1}),
	"count-zero":        sketchBlock([]int16{1, 2}, []int64{1, 0}),
	"count-negative":    sketchBlock([]int16{1, 2}, []int64{-4, 1}),
	"sketch-truncated":  sketchBlock([]int16{1, 2}, []int64{1, 1})[:70],
}

func TestDecodeRollupBlockRejectsHostile(t *testing.T) {
	for name, payload := range hostileBlocks {
		var err error
		got := allocatedBy(func() { _, _, err = decodeRollupBlock(payload) })
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if bound := decodeAllocBound(len(payload)); got > bound {
			t.Errorf("%s: decoding %d bytes allocated %d, bound %d", name, len(payload), got, bound)
		}
	}
	// The widest sketch the format allows is still accepted.
	if _, entries, err := decodeRollupBlock(sketchBlock([]int16{sketchMinIdx, sketchMaxIdx}, []int64{1, 1})); err != nil {
		t.Errorf("full-width sketch rejected: %v", err)
	} else if sk := &entries[0].b.sk; len(sk.counts) != sketchMaxIdx-sketchMinIdx+1 || sk.Count() != 2 {
		t.Errorf("full-width sketch: %d counters, count %d", len(sk.counts), sk.Count())
	}
}

// sameEntries compares decoded entries field by field, floats as bit
// patterns (arbitrary bytes decode to NaNs).
func sameEntries(a, b []rollupEntry) bool {
	return slices.EqualFunc(a, b, func(x, y rollupEntry) bool {
		return x.key == y.key && x.b.Start == y.b.Start && x.b.Count == y.b.Count &&
			math.Float64bits(x.b.Sum) == math.Float64bits(y.b.Sum) &&
			math.Float64bits(x.b.Min) == math.Float64bits(y.b.Min) &&
			math.Float64bits(x.b.Max) == math.Float64bits(y.b.Max) &&
			x.b.sk.zero == y.b.sk.zero && x.b.sk.total == y.b.sk.total &&
			x.b.sk.lo == y.b.sk.lo && slices.Equal(x.b.sk.counts, y.b.sk.counts)
	})
}

// FuzzRollupBlock: arbitrary bytes never panic the decoder or make it
// allocate beyond a multiple of the input, and whatever decodes re-encodes
// to a block that decodes to the same entries (and is then a fixed point).
func FuzzRollupBlock(f *testing.F) {
	b := &Bucket{Start: 120}
	for _, v := range []float64{0, 0.02, 0.5, 0.5, 17, 4e9} {
		b.add(v)
	}
	f.Add(encodeRollupBlock(2, []rollupEntry{{bucketKey{sid: 1, start: 120}, b}, {bucketKey{sid: 4, start: 180}, &Bucket{Start: 180}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			segID   uint64
			entries []rollupEntry
			err     error
		)
		got := allocatedBy(func() { segID, entries, err = decodeRollupBlock(data) })
		if bound := decodeAllocBound(len(data)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		block := encodeRollupBlock(segID, entries)
		segID2, entries2, err := decodeRollupBlock(block)
		if err != nil {
			t.Fatalf("re-encoded block does not decode: %v", err)
		}
		if segID2 != segID || !sameEntries(entries, entries2) {
			t.Fatalf("re-encoded block decodes to different entries")
		}
		if again := encodeRollupBlock(segID2, entries2); !bytes.Equal(again, block) {
			t.Fatalf("encode(decode(block)) != block")
		}
	})
}

// FuzzSketch decodes bytes into Add/AddN/Merge operations over three
// sketches and holds each to the reference sketch. One op is ten bytes:
// [op][target][8 value bytes]; a merge empties its source, so counts stay
// far from int64 overflow however long the input.
func FuzzSketch(f *testing.F) {
	f.Add([]byte(strings.Repeat("\x00\x00\x9a\x99\x99\x99\x99\x99\xb9\x3f", 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := [3]sketchPair{newSketchPair(), newSketchPair(), newSketchPair()}
		for ; len(data) >= 10; data = data[10:] {
			p := pairs[data[1]%3]
			raw := binary.LittleEndian.Uint64(data[2:])
			v := math.Float64frombits(raw)
			if data[0]&0x80 != 0 {
				// Raw bit patterns are mostly astronomically large or
				// small; this form spreads over the window instead.
				v = math.Exp(float64(int16(raw)) / 400)
			}
			switch data[0] % 4 {
			case 0, 1:
				p.add(v)
			case 2:
				p.addN(v, int64(int8(raw>>16))<<(raw>>24%40))
			case 3:
				if src := (data[1] / 3) % 3; src != data[1]%3 {
					p.merge(pairs[src])
					pairs[src] = newSketchPair()
				}
			}
		}
		for _, p := range pairs {
			p.check(t)
		}
	})
}
