package history

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"raqo/internal/applog"
	"raqo/internal/applog/applogtest"
)

// The recovery oracle. Open takes a surviving segment's aggregates from
// the rollup logs when both hold one block for it that agrees with its raw
// points, and re-rolls the raw points otherwise. Re-rolling every
// surviving segment is what Open did before it read a seal's blocks, so a
// second copy of each store, with every such block stripped from both
// logs, is the reference: Open on the copy as written must give the same
// Query and QuantileRange answers, bit for bit, and the same compacted
// rollup-log bytes, also after one more seal on top.

// recoverSeries are the series every recovery scenario writes.
var recoverSeries = []string{"r.latency", "r.relerr", "r.flat"}

// recoverBase is hour-aligned.
const recoverBase = 1_700_002_800

// recWriter drives one store through a scenario.
type recWriter struct {
	t      *testing.T
	st     *Store
	series []*Series
	n      int // points emitted per series, the goldenValue index
}

// openWriter opens the store at dir, through fsys when it is not nil.
func openWriter(t *testing.T, dir string, cfg Config, fsys *applogtest.FS) *recWriter {
	t.Helper()
	var st *Store
	var err error
	if fsys != nil {
		st, err = open(dir, cfg, fsys)
	} else {
		st, err = Open(dir, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	w := &recWriter{t: t, st: st}
	for _, name := range recoverSeries {
		s, err := st.Series(name)
		if err != nil {
			t.Fatal(err)
		}
		w.series = append(w.series, s)
	}
	return w
}

// feed appends n ticks on every series from ts, stride seconds apart,
// every third tick stepping back 200 s (out of order within and across
// commits), committing every seventh tick and at the end. It returns the
// last tick's timestamp.
func (w *recWriter) feed(ts int64, n int, stride int64) int64 {
	w.t.Helper()
	var at int64
	for i := 0; i < n; i++ {
		at = ts + int64(i)*stride
		if i%3 == 2 {
			at -= 200
		}
		for j, s := range w.series {
			w.st.Append(s, at, goldenValue(j, w.n))
		}
		w.n++
		if i%7 == 6 || i == n-1 {
			if err := w.st.Commit(); err != nil {
				w.t.Fatal(err)
			}
		}
	}
	return at
}

// close closes the store cleanly.
func (w *recWriter) close() {
	w.t.Helper()
	if err := w.st.Close(); err != nil {
		w.t.Fatal(err)
	}
}

// crash leaves the files as a kill -9 would: closed, nothing sealed. It
// returns the points of the active segment it left unsealed.
func (w *recWriter) crash() int64 {
	w.t.Helper()
	w.st.mu.Lock()
	defer w.st.mu.Unlock()
	if err := w.st.closeFilesLocked(); err != nil {
		w.t.Fatal(err)
	}
	return w.st.activeCount
}

// crashActive is crash where the scenario must leave an active segment.
func (w *recWriter) crashActive() int64 {
	w.t.Helper()
	n := w.crash()
	if n == 0 {
		w.t.Fatal("the crash leaves no active segment to re-roll")
	}
	return n
}

// activePoints is what a crash now would leave unsealed.
func (w *recWriter) activePoints() int64 {
	w.st.mu.Lock()
	defer w.st.mu.Unlock()
	return w.st.activeCount
}

var (
	sealingCfg   = Config{SegmentMaxBytes: 1 << 10}
	retentionCfg = Config{SegmentMaxBytes: 1 << 10, RawRetention: 3600, Retention1m: 9 * 3600}
)

// recoveryCase is one store to recover: write leaves it in dir and returns
// the raw points Open must re-roll.
type recoveryCase struct {
	name  string
	cfg   Config
	write func(t *testing.T, dir string) int64
}

// cleanCases end in a clean Close: Open re-rolls nothing.
var cleanCases = []recoveryCase{
	{"one-segment", Config{}, func(t *testing.T, dir string) int64 {
		w := openWriter(t, dir, Config{}, nil)
		w.feed(recoverBase, 300, 13)
		w.close()
		return 0
	}},
	{"sealed", sealingCfg, func(t *testing.T, dir string) int64 {
		w := openWriter(t, dir, sealingCfg, nil)
		w.feed(recoverBase, 400, 45)
		if w.st.Stats().SealedTotal < 3 {
			t.Fatal("the store sealed fewer than three segments")
		}
		w.close()
		return 0
	}},
	{"reopened", sealingCfg, func(t *testing.T, dir string) int64 {
		w := openWriter(t, dir, sealingCfg, nil)
		last := w.feed(recoverBase, 200, 45)
		w.close()
		w = openWriter(t, dir, sealingCfg, nil)
		w.feed(last-3000, 150, 31) // back into the first process's minutes
		w.close()
		return 0
	}},
	{"retention", retentionCfg, func(t *testing.T, dir string) int64 {
		w := openWriter(t, dir, retentionCfg, nil)
		w.feed(recoverBase, 120, 60)
		w.feed(recoverBase+10*3600, 200, 45) // ages the first hours out
		if w.st.Stats().RetainedTotal == 0 {
			t.Fatal("raw retention deleted no segment")
		}
		w.close()
		w = openWriter(t, dir, retentionCfg, nil)
		w.feed(recoverBase+12*3600, 100, 40)
		w.close()
		return 0
	}},
}

// crashCases end in a kill -9 with an active segment: Open re-rolls it,
// and only it.
var crashCases = []recoveryCase{
	{"crash-one-segment", Config{}, func(t *testing.T, dir string) int64 {
		w := openWriter(t, dir, Config{}, nil)
		w.feed(recoverBase, 300, 13)
		return w.crashActive()
	}},
	{"crash-sealed", sealingCfg, func(t *testing.T, dir string) int64 {
		w := openWriter(t, dir, sealingCfg, nil)
		w.feed(recoverBase, 410, 45)
		return w.crashActive()
	}},
	{"crash-twice", sealingCfg, func(t *testing.T, dir string) int64 {
		w := openWriter(t, dir, sealingCfg, nil)
		last := w.feed(recoverBase, 300, 45)
		w.crash()
		w = openWriter(t, dir, sealingCfg, nil)
		w.feed(last-2000, 100, 17)
		return w.crashActive()
	}},
	{"crash-retention", retentionCfg, func(t *testing.T, dir string) int64 {
		w := openWriter(t, dir, retentionCfg, nil)
		w.feed(recoverBase, 120, 60)
		w.close()
		w = openWriter(t, dir, retentionCfg, nil)
		w.feed(recoverBase+10*3600, 130, 45)
		return w.crashActive()
	}},
}

// copyStore copies the files of src into a new directory dst.
func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// stripSurvivingBlocks rewrites both rollup logs of dir without the blocks
// of the segments that still hold a point, so that Open re-rolls every one
// of them; a store retention has not thinned is cut back to the magic. It
// returns the points those segments hold.
func stripSurvivingBlocks(t *testing.T, dir string) int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	surviving := make(map[uint64]bool)
	var points int64
	for _, path := range paths {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.log", &id); err != nil {
			t.Fatal(err)
		}
		n := segPoints(t, path)
		surviving[id] = n > 0
		points += n
	}
	for _, name := range []string{"rollup-1m.log", "rollup-1h.log"} {
		path := filepath.Join(dir, name)
		var kept [][]byte
		if err := applog.ScanBlocks(path, rollupMagic, func(p []byte) error {
			if !surviving[binary.LittleEndian.Uint64(p)] {
				kept = append(kept, bytes.Clone(p))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		l, err := applog.Create(applog.OS, path, rollupMagic)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range kept {
			if err := l.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return points
}

// rowLine renders one row with its floats as bit patterns.
func rowLine(r Row) string {
	return fmt.Sprintf("%d %d %016x %016x %016x %016x %016x %016x %016x", r.Start, r.Count,
		math.Float64bits(r.Sum), math.Float64bits(r.Min), math.Float64bits(r.Max), math.Float64bits(r.Mean),
		math.Float64bits(r.P50), math.Float64bits(r.P90), math.Float64bits(r.P99))
}

// recoveryAnswers collects every Query and QuantileRange answer the oracle
// compares: each series at raw, 1m and 1h steps over the whole store and
// over unaligned spans near its high-water mark.
func recoveryAnswers(t *testing.T, st *Store) []string {
	t.Helper()
	hwm := st.Stats().HighWater
	spans := [][2]int64{{-1 << 40, hwm + 7200}, {hwm - 5000 + 17, hwm - 100}, {recoverBase + 1000, recoverBase + 11*3600 + 13}}
	var out []string
	for _, name := range recoverSeries {
		for _, sp := range spans {
			for _, step := range []int64{1, 7, 60, 300, 3600} {
				rows, err := st.Query(name, sp[0], sp[1], step)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("Query(%s, %d, %d, %d): %d rows", name, sp[0], sp[1], step, len(rows)))
				for _, r := range rows {
					out = append(out, rowLine(r))
				}
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
				v, n, err := st.QuantileRange(name, sp[0], sp[1], q)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("QuantileRange(%s, %d, %d, %g) = %016x over %d", name, sp[0], sp[1], q, math.Float64bits(v), n))
			}
		}
	}
	return out
}

// rollupLogs reads both rollup logs of dir.
func rollupLogs(t *testing.T, dir string) [2][]byte {
	t.Helper()
	var out [2][]byte
	for i, name := range []string{"rollup-1m.log", "rollup-1h.log"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// checkRecovery opens the store in dir and its oracle copy and requires
// the same answers and rollup-log bytes, after Open and after one more
// seal; Open on dir must re-roll exactly rerolled points. It leaves dir as
// written.
func checkRecovery(t *testing.T, dir string, cfg Config, rerolled int64) {
	t.Helper()
	root := t.TempDir()
	got, want := filepath.Join(root, "got"), filepath.Join(root, "oracle")
	copyStore(t, dir, got)
	copyStore(t, dir, want)
	surviving := stripSurvivingBlocks(t, want)

	var ws [2]*recWriter
	for i, d := range []string{got, want} {
		ws[i] = openWriter(t, d, cfg, nil)
	}
	if n := ws[1].st.Stats().RerolledAtOpen; n != surviving {
		t.Fatalf("the oracle re-rolled %d of its %d points", n, surviving)
	}
	if n := ws[0].st.Stats().RerolledAtOpen; n != rerolled {
		t.Errorf("Open re-rolled %d points, want %d", n, rerolled)
	}
	compare := func(when string) {
		t.Helper()
		a, b := recoveryAnswers(t, ws[0].st), recoveryAnswers(t, ws[1].st)
		if i := slices.Compare(a, b); i != 0 {
			for k := range min(len(a), len(b)) {
				if a[k] != b[k] {
					t.Fatalf("%s: answer %d differs from the re-rolled store's:\n got %s\nwant %s", when, k, a[k], b[k])
				}
			}
			t.Fatalf("%s: %d answer lines, the re-rolled store gives %d", when, len(a), len(b))
		}
		la, lb := rollupLogs(t, got), rollupLogs(t, want)
		for i, name := range []string{"rollup-1m.log", "rollup-1h.log"} {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("%s: %s is %d bytes, the re-rolled store's %d and different", when, name, len(la[i]), len(lb[i]))
			}
		}
	}
	compare("after Open")
	hwm := ws[0].st.Stats().HighWater
	for _, w := range ws {
		w.feed(hwm-400, 60, 20)
		w.close()
	}
	compare("after a seal on top")
}

func TestRecoveryMatchesReroll(t *testing.T) {
	for _, c := range slices.Concat(cleanCases, crashCases) {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			checkRecovery(t, dir, c.cfg, c.write(t, dir))
		})
	}
}

// fuzzRecoveryCfg seals every few commits and ages raw segments and 1m
// buckets out within the timestamps one input spans.
var fuzzRecoveryCfg = Config{SegmentMaxBytes: 200, RawRetention: 900, Retention1m: 3600}

// FuzzRecovery runs a store through arbitrary appends, commits, clean
// reopens and crashes, four bytes an operation: [op][series][ts step][ts
// back]. Timestamps start below zero and step forward, with steps back
// (out of order). The store the input leaves, crashed or closed as its
// last byte says, recovers as the full re-roll does (checkRecovery).
func FuzzRecovery(f *testing.F) {
	f.Add([]byte("\x00\x00\x10\x00\x00\x01\x20\x05\x05\x00\x00\x00\x00\x02\x30\x40\x05\x00\x00\x00\x06\x00\x00\x00\x00\x00\x50\x00\x05\x00\x00\x00\x07"))
	f.Add([]byte("\x00\x00\xff\x00\x00\x01\xff\x00\x00\x02\xff\x00\x05\x00\x00\x00\x00\x00\x10\x00\x05\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			return
		}
		dir := t.TempDir()
		w := openWriter(t, dir, fuzzRecoveryCfg, nil)
		ts := int64(-3000)
		for ; len(data) >= 4; data = data[4:] {
			switch data[0] % 8 {
			case 5:
				if err := w.st.Commit(); err != nil {
					t.Fatal(err)
				}
			case 6:
				w.close()
				w = openWriter(t, dir, fuzzRecoveryCfg, nil)
			case 7:
				w.crash()
				w = openWriter(t, dir, fuzzRecoveryCfg, nil)
			default:
				ts += int64(data[2])
				j := int(data[1]) % len(w.series)
				w.st.Append(w.series[j], ts-int64(data[3])*4, goldenValue(j, w.n))
				w.n++
			}
		}
		if err := w.st.Commit(); err != nil {
			t.Fatal(err)
		}
		rerolled := int64(0)
		if len(data) > 0 && data[0]%2 == 1 {
			rerolled = w.crash()
		} else {
			w.close()
		}
		checkRecovery(t, dir, fuzzRecoveryCfg, rerolled)
	})
}

// sealFaults are the ways a write in Close can fail: a write error, short
// writes into a block's header and payload, a whole block written then
// refused, each of the last two with the cut-back failing too, and a
// failed close.
var sealFaults = []applogtest.Faults{
	{Write: true},
	{Write: true, Keep: 5},
	{Write: true, Keep: 40},
	{Write: true, Keep: 5, Truncate: true},
	{Write: true, Keep: 1 << 30, Truncate: true},
	{Close: true},
}

// TestRecoveryAfterFailedSeal crashes at every fault point of Close: its
// commit of staged points to the active segment, and the seal's close of
// that segment and its block in either rollup log. Whatever reached the
// disk, Open recovers what re-rolling every segment does, and re-rolls the
// active segment, whole, unless both its blocks were written.
func TestRecoveryAfterFailedSeal(t *testing.T) {
	unsealed := 0
	for _, match := range []string{"seg-", "rollup-1m", "rollup-1h"} {
		for _, f := range sealFaults {
			f.Match = match
			t.Run(fmt.Sprintf("%s/%+v", match, f), func(t *testing.T) {
				dir := t.TempDir()
				fsys := &applogtest.FS{}
				w := openWriter(t, dir, sealingCfg, fsys)
				w.feed(recoverBase, 410, 45)
				for j, s := range w.series { // staged: Close commits them
					w.st.Append(s, recoverBase+410*45, float64(j))
				}
				fsys.Set(f)
				err := w.st.Close()
				fsys.Set(applogtest.Faults{})
				if err == nil {
					t.Fatal("Close under the fault succeeded")
				}
				rerolled := int64(0)
				if sealBlocks(t, dir) < 2 {
					_, seg := newestSegment(t, dir)
					rerolled = segPoints(t, seg)
					unsealed++
				}
				checkRecovery(t, dir, sealingCfg, rerolled)
			})
		}
	}
	if unsealed == 0 {
		t.Error("no fault stopped a seal: the cases test nothing")
	}
}

// newestSegment returns the id and path of dir's newest segment file.
func newestSegment(t *testing.T, dir string) (uint64, string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	path := paths[len(paths)-1]
	var id uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.log", &id); err != nil {
		t.Fatal(err)
	}
	return id, path
}

// segPoints counts the points of the segment file at path that a
// checksum verifies.
func segPoints(t *testing.T, path string) int64 {
	t.Helper()
	var n int64
	if err := applog.ScanBlocks(path, segMagic, func(p []byte) error {
		n += int64(len(p) / pointRecordLen)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// sealBlocks counts the rollup logs of dir whose last block is the newest
// segment's: 2 when its seal wrote both.
func sealBlocks(t *testing.T, dir string) int {
	t.Helper()
	newest, _ := newestSegment(t, dir)
	n := 0
	for _, name := range []string{"rollup-1m.log", "rollup-1h.log"} {
		last := compactedSegID
		if err := applog.ScanBlocks(filepath.Join(dir, name), rollupMagic, func(p []byte) error {
			last = binary.LittleEndian.Uint64(p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if last == newest {
			n++
		}
	}
	return n
}

// TestRecoveryFallsBackToReroll damages a cleanly closed store where only
// a re-roll can answer right: a torn rollup block, a block in one level
// only, a block logged twice, a flipped byte in the raw segment. Open must
// re-roll the segment concerned and match the oracle.
func TestRecoveryFallsBackToReroll(t *testing.T) {
	for _, c := range []struct {
		name string
		// damage breaks the store in dir; logSize is each rollup log's
		// size before Close sealed the segment at seg, which held points.
		damage func(t *testing.T, dir string, logSize [2]int64, seg string, points int64) (rerolled int64)
	}{
		{"torn-rollup-block", func(t *testing.T, dir string, logSize [2]int64, seg string, points int64) int64 {
			truncate(t, filepath.Join(dir, "rollup-1m.log"), -3)
			return points
		}},
		{"one-level-only", func(t *testing.T, dir string, logSize [2]int64, seg string, points int64) int64 {
			if err := os.Truncate(filepath.Join(dir, "rollup-1h.log"), logSize[1]); err != nil {
				t.Fatal(err)
			}
			return points
		}},
		{"duplicated-block", func(t *testing.T, dir string, logSize [2]int64, seg string, points int64) int64 {
			path := filepath.Join(dir, "rollup-1m.log")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(data, data[logSize[0]:]...), 0o644); err != nil {
				t.Fatal(err)
			}
			return points
		}},
		{"flipped-raw-byte", func(t *testing.T, dir string, logSize [2]int64, seg string, points int64) int64 {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			// The checksum cuts the last block; the rest re-rolls.
			return points - int64(len(recoverSeries))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			w := openWriter(t, dir, sealingCfg, nil)
			last := w.feed(recoverBase, 410, 45)
			// The last block: one point per series, inside the segment's
			// span, so that only the count tells a block that lost it.
			for j, s := range w.series {
				w.st.Append(s, last-10, float64(j))
			}
			if err := w.st.Commit(); err != nil {
				t.Fatal(err)
			}
			logSize := [2]int64{w.st.lv1m.log.Size(), w.st.lv1h.log.Size()}
			seg, points := w.st.active.Path(), w.activePoints()
			if points <= int64(len(recoverSeries)) {
				t.Fatal("the active segment holds only its last block")
			}
			w.close()
			if got := sealBlocks(t, dir); got != 2 {
				t.Fatalf("Close wrote %d of the seal's 2 blocks", got)
			}
			rerolled := c.damage(t, dir, logSize, seg, points)
			checkRecovery(t, dir, sealingCfg, rerolled)
		})
	}
}

// truncate shortens the file at path by -delta bytes.
func truncate(t *testing.T, path string, delta int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()+delta); err != nil {
		t.Fatal(err)
	}
}

// TestReopenKeepsHighWater: the rollup buckets of a segment raw retention
// deleted imply a high-water mark no later than their start, so a reopen
// neither moves the mark past the newest committed point nor lets its
// retention pass delete raw segments still inside RawRetention of it.
func TestReopenKeepsHighWater(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SegmentMaxBytes: 1, RawRetention: 900}
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{0, 1000, 1100} {
		st.Record("r.hwm", ts, 1)
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	raw := func(st *Store) int64 {
		rows, err := st.Query("r.hwm", 0, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, r := range rows {
			n += r.Count
		}
		return n
	}
	if hw, n := st.Stats().HighWater, raw(st); hw != 1100 || n != 2 {
		t.Fatalf("before Close: high water %d, %d raw points; want 1100 and 2", hw, n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if hw, n := st.Stats().HighWater, raw(st); hw != 1100 || n != 2 {
		t.Errorf("after reopen: high water %d, %d raw points; want 1100 and 2", hw, n)
	}
}
