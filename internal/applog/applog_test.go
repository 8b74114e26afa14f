package applog_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"raqo/internal/applog"
	"raqo/internal/applog/applogtest"
)

const testMagic = "RQTEST1\n"

// framings are the two record framings under test: newline framing
// (magic "") and block framing.
var framings = []struct {
	name  string
	magic string
}{{"lines", ""}, {"blocks", testMagic}}

// record is the i-th test record in a framing: a line or a payload.
func record(magic string, i int) []byte {
	if magic == "" {
		return []byte(fmt.Sprintf("record %d\n", i))
	}
	return []byte(fmt.Sprintf("payload %d", i))
}

// records reads a log file back through the read-only scan: lines with
// their newline restored, or payloads.
func records(t *testing.T, path, magic string) [][]byte {
	t.Helper()
	var out [][]byte
	var err error
	if magic == "" {
		err = applog.ScanLines(path, func(line []byte) error {
			out = append(out, append(append([]byte(nil), line...), '\n'))
			return nil
		})
	} else {
		err = applog.ScanBlocks(path, magic, func(p []byte) error {
			out = append(out, append([]byte(nil), p...))
			return nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// framed is what a log file holding recs is, byte for byte.
func framed(magic string, recs ...[]byte) []byte {
	out := []byte(magic)
	for _, r := range recs {
		if magic != "" {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
			out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(r))
		}
		out = append(out, r...)
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLogFaults holds both framings to the log's two rules under every
// fault the file interface can raise: nothing that was not written is
// acknowledged (a refused record leaves no byte behind, or the log
// refuses what follows until reopened), and nothing that was acknowledged
// is lost (across the fault, a later append and a reopen).
func TestLogFaults(t *testing.T) {
	cases := []struct {
		name   string
		faults applogtest.Faults
		// sticky: the cut-back failed, so the log refuses appends until
		// reopened.
		sticky bool
	}{
		{"short write", applogtest.Faults{Write: true, Keep: 3}, false},
		{"write error", applogtest.Faults{Write: true}, false},
		{"short write, failing truncate", applogtest.Faults{Write: true, Keep: 5, Truncate: true}, true},
	}
	for _, fr := range framings {
		for _, c := range cases {
			t.Run(fr.name+"/"+c.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log")
				fsys := &applogtest.FS{}
				l, err := applog.Open(fsys, path, fr.magic, nil)
				if err != nil {
					t.Fatal(err)
				}
				r := func(i int) []byte { return record(fr.magic, i) }
				for i := 0; i < 2; i++ {
					if err := l.Append(r(i)); err != nil {
						t.Fatal(err)
					}
				}
				fsys.Set(c.faults)
				if err := l.Append(r(2)); !errors.Is(err, applogtest.ErrInjected) {
					t.Fatalf("append under the fault: %v", err)
				}
				fsys.Set(applogtest.Faults{})
				want := [][]byte{r(0), r(1)}
				if !c.sticky {
					if got := readFile(t, path); !bytes.Equal(got, framed(fr.magic, want...)) {
						t.Fatalf("after the refused append the file is %q, want %q", got, framed(fr.magic, want...))
					}
					if l.Size() != int64(len(framed(fr.magic, want...))) {
						t.Fatalf("Size %d after the refused append", l.Size())
					}
				}
				err = l.Append(r(3))
				if c.sticky != (err != nil) {
					t.Fatalf("append after the fault: %v (sticky %v)", err, c.sticky)
				}
				if err == nil {
					want = append(want, r(3))
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if got := records(t, path, fr.magic); !reflect.DeepEqual(got, want) {
					t.Fatalf("read back %q, want %q", got, want)
				}
				// Reopening cuts a torn tail and keeps every acknowledged
				// record, and the log appends again.
				l, err = applog.Open(fsys, path, fr.magic, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Append(r(4)); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				want = append(want, r(4))
				if got := readFile(t, path); !bytes.Equal(got, framed(fr.magic, want...)) {
					t.Fatalf("after reopening the file is %q, want %q", got, framed(fr.magic, want...))
				}
			})
		}
	}
}

// TestLogCloseFault: a failing close is reported, and what was
// acknowledged before it is kept.
func TestLogCloseFault(t *testing.T) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			fsys := &applogtest.FS{}
			l, err := applog.Open(fsys, path, fr.magic, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := [][]byte{record(fr.magic, 0), record(fr.magic, 1)}
			for _, r := range want {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			fsys.Set(applogtest.Faults{Close: true})
			if err := l.Close(); !errors.Is(err, applogtest.ErrInjected) {
				t.Fatalf("Close under the fault: %v", err)
			}
			if err := l.Append(record(fr.magic, 2)); err == nil {
				t.Fatal("append after Close succeeded")
			}
			if got := records(t, path, fr.magic); !reflect.DeepEqual(got, want) {
				t.Fatalf("read back %q, want %q", got, want)
			}
		})
	}
}

// TestLogCreateFaults: a block-framed file whose magic write fails is
// left empty, and the next Open writes the magic; a failing open is an
// error.
func TestLogCreateFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	fsys := &applogtest.FS{}
	fsys.Set(applogtest.Faults{Open: true})
	if _, err := applog.Open(fsys, path, testMagic, nil); !errors.Is(err, applogtest.ErrInjected) {
		t.Fatalf("Open under an open fault: %v", err)
	}
	for _, keep := range []int{0, 3} {
		fsys.Set(applogtest.Faults{Write: true, Keep: keep})
		if _, err := applog.Open(fsys, path, testMagic, nil); !errors.Is(err, applogtest.ErrInjected) {
			t.Fatalf("Open under a write fault: %v", err)
		}
		if got := readFile(t, path); len(got) != 0 {
			t.Fatalf("a failed create left %q", got)
		}
	}
	fsys.Set(applogtest.Faults{})
	l, err := applog.Open(fsys, path, testMagic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); string(got) != testMagic {
		t.Fatalf("file %q, want the magic", got)
	}
}

// TestLogRename: an open log renamed keeps appending at its new path, and
// a failed rename leaves it where it was.
func TestLogRename(t *testing.T) {
	dir := t.TempDir()
	fsys := &applogtest.FS{}
	l, err := applog.Create(fsys, filepath.Join(dir, "a.tmp"), testMagic)
	if err != nil {
		t.Fatal(err)
	}
	fsys.Set(applogtest.Faults{Rename: true})
	if err := l.Rename(filepath.Join(dir, "a")); !errors.Is(err, applogtest.ErrInjected) || l.Path() != filepath.Join(dir, "a.tmp") {
		t.Fatalf("rename under the fault: %v, path %s", err, l.Path())
	}
	fsys.Set(applogtest.Faults{})
	if err := l.Rename(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := records(t, filepath.Join(dir, "a"), testMagic); len(got) != 1 || string(got[0]) != "x" {
		t.Fatalf("renamed log holds %q", got)
	}
}

// recoveredLen is the length recovery must keep of data under a framing,
// computed here independently of the package: through the last newline,
// or through the last block whose length and checksum hold. ok is false
// when the block-framed data carries another magic.
func recoveredLen(data []byte, magic string) (n int, ok bool) {
	if magic == "" {
		return bytes.LastIndexByte(data, '\n') + 1, true
	}
	if len(data) < len(magic) {
		return 0, true
	}
	if string(data[:len(magic)]) != magic {
		return 0, false
	}
	n = len(magic)
	for len(data)-n >= 8 {
		size := int(binary.LittleEndian.Uint32(data[n:]))
		sum := binary.LittleEndian.Uint32(data[n+4:])
		if size > len(data)-n-8 || crc32.ChecksumIEEE(data[n+8:n+8+size]) != sum {
			break
		}
		n += 8 + size
	}
	return n, true
}

// FuzzLogRecover treats arbitrary bytes as an existing file under each
// framing. Open must not panic; it must keep the longest prefix of the
// bytes that ends on a record boundary (a file shorter than its magic
// becomes the magic, one with another magic is refused untouched); a
// second Open must change nothing; and an append after recovery must read
// back as the recovered records plus the new one.
func FuzzLogRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a\nb\nc"))
	f.Add([]byte("no newline at all"))
	f.Add([]byte("RQTE"))
	f.Add([]byte("NOTMAGIC and more"))
	f.Add(framed(testMagic, []byte("one"), []byte("two")))
	whole := framed(testMagic, []byte("one"), []byte("two"))
	f.Add(whole[:len(whole)-2])
	f.Add(append(framed(testMagic, []byte("one")), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fr := range framings {
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			want, ok := recoveredLen(data, fr.magic)
			l, err := applog.Open(applog.OS, path, fr.magic, nil)
			if !ok {
				if err == nil || !bytes.Equal(readFile(t, path), data) {
					t.Fatalf("%s: another magic: Open %v, file changed %v", fr.name, err, !bytes.Equal(readFile(t, path), data))
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Open: %v", fr.name, err)
			}
			got := readFile(t, path)
			wantFile := data[:want]
			if fr.magic != "" && want == 0 {
				wantFile = []byte(fr.magic)
			}
			if !bytes.Equal(got, wantFile) || l.Size() != int64(len(wantFile)) {
				t.Fatalf("%s: recovered %q (size %d), want %q", fr.name, got, l.Size(), wantFile)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, err = applog.Open(applog.OS, path, fr.magic, nil); err != nil {
				t.Fatalf("%s: second Open: %v", fr.name, err)
			}
			if again := readFile(t, path); !bytes.Equal(again, got) {
				t.Fatalf("%s: second Open changed %q to %q", fr.name, got, again)
			}
			before := records(t, path, fr.magic)
			rec := record(fr.magic, 7)
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if after := records(t, path, fr.magic); !reflect.DeepEqual(after, append(before, rec)) {
				t.Fatalf("%s: after the append read %q, want %q plus %q", fr.name, after, before, rec)
			}
		}
	})
}
