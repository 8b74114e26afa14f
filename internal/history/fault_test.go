package history

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"raqo/internal/applog/applogtest"
)

// The fault tests force one write failure the way a full disk or a file
// size limit does — the failing write puts down a few bytes, then errors
// — and hold the store to "acknowledged ⇒ kept": every point a Commit
// acknowledged is returned by Query, live and after a reopen, and nothing
// a failed call wrote survives to mislabel or hide what follows.

// openFaulty opens a store in dir that writes through fsys.
func openFaulty(t *testing.T, dir string, fsys *applogtest.FS) *Store {
	t.Helper()
	st, err := open(dir, Config{}, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// rawCount is how many raw points Query returns for series in [0, 1e6).
func rawCount(t *testing.T, st *Store, series string) int64 {
	t.Helper()
	rows, err := st.Query(series, 0, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, b := range rows {
		n += b.Count
	}
	return n
}

// commitPoints stages n points on s from ts and commits them.
func commitPoints(st *Store, s *Series, ts int64, n int) error {
	for i := 0; i < n; i++ {
		st.Append(s, ts+int64(i), float64(i))
	}
	return st.Commit()
}

// TestFailedCommitKeepsLaterPoints (a): after one failed Commit, its retry
// and every later commit in the segment are acknowledged and queryable,
// live and after a reopen.
func TestFailedCommitKeepsLaterPoints(t *testing.T) {
	dir := t.TempDir()
	fsys := &applogtest.FS{}
	st := openFaulty(t, dir, fsys)
	s, err := st.Series("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := commitPoints(st, s, 100, 10); err != nil {
		t.Fatal(err)
	}
	// The block's header and a few payload bytes reach the file.
	fsys.Set(applogtest.Faults{Match: "seg-", Write: true, Keep: 18})
	if err := commitPoints(st, s, 200, 10); err == nil {
		t.Fatal("Commit under a write fault succeeded")
	}
	fsys.Set(applogtest.Faults{})
	if err := st.Commit(); err != nil { // the retry of the staged points
		t.Fatal(err)
	}
	if err := commitPoints(st, s, 300, 10); err != nil {
		t.Fatal(err)
	}
	if n := rawCount(t, st, "x"); n != 30 {
		t.Fatalf("live query returns %d of 30 acknowledged points", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openFaulty(t, dir, fsys)
	defer st.Close()
	if n := rawCount(t, st, "x"); n != 30 {
		t.Fatalf("after reopen the query returns %d of 30 acknowledged points", n)
	}
}

// TestFailedSegmentCreateRecovers (b): a segment create whose magic write
// fails does not stop the next Commit.
func TestFailedSegmentCreateRecovers(t *testing.T) {
	dir := t.TempDir()
	fsys := &applogtest.FS{}
	st := openFaulty(t, dir, fsys)
	s, err := st.Series("x")
	if err != nil {
		t.Fatal(err)
	}
	fsys.Set(applogtest.Faults{Match: "seg-", Write: true, Keep: 4})
	if err := commitPoints(st, s, 100, 5); err == nil {
		t.Fatal("Commit under a create fault succeeded")
	}
	fsys.Set(applogtest.Faults{})
	if err := st.Commit(); err != nil {
		t.Fatalf("Commit after a failed segment create: %v", err)
	}
	if err := commitPoints(st, s, 200, 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openFaulty(t, dir, fsys)
	defer st.Close()
	if n := rawCount(t, st, "x"); n != 10 {
		t.Fatalf("after reopen the query returns %d of 10 acknowledged points", n)
	}
}

// TestFailedRegistrationKeepsNames (c): a registration whose write fails
// leaves only whole lines in series.idx, and every series registered
// after it keeps its name and its points across a reopen.
func TestFailedRegistrationKeepsNames(t *testing.T) {
	dir := t.TempDir()
	fsys := &applogtest.FS{}
	st := openFaulty(t, dir, fsys)
	if _, err := st.Series("a"); err != nil {
		t.Fatal(err)
	}
	fsys.Set(applogtest.Faults{Match: "series.idx", Write: true, Keep: 3})
	if _, err := st.Series("b"); err == nil {
		t.Fatal("registration under a write fault succeeded")
	}
	fsys.Set(applogtest.Faults{})
	c, err := st.Series("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := commitPoints(st, c, 100, 7); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, "series.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("0 a\n1 c\n"); !bytes.Equal(idx, want) {
		t.Fatalf("series.idx holds %q, want %q", idx, want)
	}
	st = openFaulty(t, dir, fsys)
	defer st.Close()
	if n := rawCount(t, st, "c"); n != 7 {
		t.Fatalf("after reopen series c has %d of its 7 points", n)
	}
	if _, err := st.Query("b", 0, 1000, 1); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("the failed registration is a series after reopen: %v", err)
	}
}

// TestCloseErrorsSurface: a segment whose close fails — at a seal or at
// Store.Close — reports it, and the points it holds stay.
func TestCloseErrorsSurface(t *testing.T) {
	dir := t.TempDir()
	fsys := &applogtest.FS{}
	st, err := open(dir, Config{SegmentMaxBytes: 200}, fsys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Series("x")
	if err != nil {
		t.Fatal(err)
	}
	fsys.Set(applogtest.Faults{Match: "seg-", Close: true})
	if err := commitPoints(st, s, 100, 10); !errors.Is(err, applogtest.ErrInjected) {
		t.Fatalf("Commit that seals under a close fault: %v", err)
	}
	if err := commitPoints(st, s, 200, 2); err != nil {
		t.Fatalf("Commit after the failed seal: %v", err)
	}
	if err := st.Close(); !errors.Is(err, applogtest.ErrInjected) {
		t.Fatalf("Close under a close fault: %v", err)
	}
	fsys.Set(applogtest.Faults{})
	st = openFaulty(t, dir, fsys)
	defer st.Close()
	if n := rawCount(t, st, "x"); n != 12 {
		t.Fatalf("after reopen the query returns %d of 12 written points", n)
	}
}
