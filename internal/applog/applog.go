// Package applog is the one append-only log under every durable file of
// the service: the feedback journal, the history store's segments and
// rollup logs, and its series registry. It owns opening (which cuts off a
// torn tail), appending a record in one write, cutting the file back
// after a failed or short write, renaming, closing, and the read-only
// scans that replay and queries use.
//
// Two framings exist, and the bytes on disk are the callers' formats:
//
//   - newline framing (magic ""): a record is one or more whole lines,
//     and whatever follows the last newline is a write a crash cut short;
//   - block framing: a magic header, then checksummed blocks, and a block
//     whose header, length or checksum fails ends the verified prefix.
//
// A block is, in little-endian byte order,
//
//	[u32 payload length][u32 CRC-32 (IEEE) of payload][payload]
//
// The contract is "acknowledged means written": Append returns nil only
// once write(2) has taken the whole record, and a record it refused
// leaves no byte behind — the log truncates the file back to where the
// record began, and if even that fails it refuses every later append
// until the file is reopened, whose recovery cuts the torn tail. Nothing
// calls fsync: an acknowledged record survives the process (kill -9),
// not the operating system (a kernel crash or power loss).
package applog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
)

// File is the part of an open file a Log uses. *os.File implements it.
type File interface {
	io.ReaderAt
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
	Close() error
}

// FS opens, renames and removes the files a Log writes. OS is the real
// file system; only tests substitute another, to make operations fail.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

const (
	blockHeaderLen = 8
	// maxBlockLen bounds a block read during a scan, so a corrupt length
	// field cannot provoke a huge allocation.
	maxBlockLen = 64 << 20
	// maxLineLen bounds a line read during a scan.
	maxLineLen = 16 << 20
)

// Log is one append-only file of whole records. It is not safe for
// concurrent use; its owner serializes calls.
type Log struct {
	fsys  FS
	path  string
	magic string // "" frames records by newlines
	f     File   // nil once closed
	size  int64  // whole records on disk, magic included
	buf   []byte // the framed block in hand, reused
	err   error  // a cut-back failed: the file may end torn until reopened
}

// Open opens path for appending, creating it if needed, and cuts off a
// torn tail. With block framing each, when not nil, sees every verified
// payload in file order; an error from it fails the Open and leaves the
// file as it was. A file shorter than its magic is an interrupted create
// and is torn whole; a file with another magic is an error. An empty
// file gets the magic.
func Open(fsys FS, path, magic string, each func(payload []byte) error) (*Log, error) {
	return open(fsys, path, magic, 0, each)
}

// Create is Open on a file emptied first: whatever was at path is gone.
func Create(fsys FS, path, magic string) (*Log, error) {
	return open(fsys, path, magic, os.O_TRUNC, nil)
}

func open(fsys FS, path, magic string, flag int, each func([]byte) error) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{fsys: fsys, path: path, magic: magic, f: f}
	if err := l.recover(each); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover finds the end of the last whole record, truncates what follows
// and writes the magic into an empty block-framed file.
func (l *Log) recover(each func([]byte) error) error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	end, good := info.Size(), int64(0)
	if l.magic == "" {
		good, err = lastNewline(l.f, end)
	} else {
		good, err = scanBlocks(io.NewSectionReader(l.f, 0, end), l.path, l.magic, each)
	}
	if err != nil {
		return err
	}
	if good < end {
		if err := l.f.Truncate(good); err != nil {
			return fmt.Errorf("%s: cutting off a torn tail: %w", l.path, err)
		}
	}
	l.size = good
	if good == 0 && l.magic != "" {
		return l.write([]byte(l.magic))
	}
	return nil
}

// lastNewline returns the offset just past the last newline in the first
// end bytes of f, reading backwards from the end: a tail never costs a
// scan of the whole file.
func lastNewline(f io.ReaderAt, end int64) (int64, error) {
	var chunk [4096]byte
	for end > 0 {
		n := min(end, int64(len(chunk)))
		if _, err := f.ReadAt(chunk[:n], end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(chunk[:n], '\n'); i >= 0 {
			return end - n + int64(i) + 1, nil
		}
		end -= n
	}
	return 0, nil
}

// Path returns where the log's file is now.
func (l *Log) Path() string { return l.path }

// Size returns the bytes of whole records in the file, magic included.
func (l *Log) Size() int64 { return l.size }

// Append writes one record with one write. With newline framing rec is
// one or more whole lines; with block framing rec is a payload, which
// Append frames. On an error rec is not acknowledged and nothing of it
// stays in the file, or, if cutting it back fails too, the log refuses
// every later append until the file is reopened.
func (l *Log) Append(rec []byte) error {
	if l.magic == "" {
		return l.write(rec)
	}
	le := binary.LittleEndian
	l.buf = le.AppendUint32(le.AppendUint32(l.buf[:0], uint32(len(rec))), crc32.ChecksumIEEE(rec))
	l.buf = append(l.buf, rec...)
	return l.write(l.buf)
}

// write puts p at the end of the file, or cuts a partial write back.
func (l *Log) write(p []byte) error {
	switch {
	case l.f == nil:
		return fmt.Errorf("%s is closed", l.path)
	case l.err != nil:
		return l.err
	case len(p) == 0:
		return nil
	}
	n, err := l.f.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		if n > 0 {
			_ = l.Truncate(l.size) // on failure l.err refuses what follows
		}
		return fmt.Errorf("%s: %w", l.path, err)
	}
	l.size += int64(n)
	return nil
}

// Truncate cuts the log back to size bytes, dropping records its owner
// will not acknowledge after all. If the cut fails, the log refuses every
// later append until the file is reopened.
func (l *Log) Truncate(size int64) error {
	if l.f == nil {
		return fmt.Errorf("%s is closed", l.path)
	}
	if err := l.f.Truncate(size); err != nil {
		l.err = fmt.Errorf("%s: cut back to %d bytes failed, appends refused until reopened: %w", l.path, size, err)
		return l.err
	}
	l.size = size
	return nil
}

// Rename moves the open log's file to newpath; appends continue there.
func (l *Log) Rename(newpath string) error {
	if err := l.fsys.Rename(l.path, newpath); err != nil {
		return err
	}
	l.path = newpath
	return nil
}

// Close closes the file. Later appends fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ScanBlocks calls fn with every verified payload of the block-framed
// file at path, in order, and stops at the first torn block. It only
// reads.
func ScanBlocks(path, magic string, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scanBlocks(f, path, magic, fn)
	return err
}

// scanBlocks reads a block-framed file from r, calling fn (when not nil)
// for every payload whose checksum verifies, and returns where the
// verified prefix ends: 0 when the file is shorter than its magic. A
// short header, short payload or checksum mismatch ends the scan.
func scanBlocks(r io.Reader, path, magic string, fn func([]byte) error) (int64, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		if torn(err) {
			err = nil
		}
		return 0, err
	}
	if string(head) != magic {
		return 0, fmt.Errorf("%s: bad magic %q", path, head)
	}
	good := int64(len(magic))
	var hdr [blockHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if torn(err) {
				err = nil
			}
			return good, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > maxBlockLen {
			return good, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			if torn(err) {
				err = nil
			}
			return good, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return good, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return good, err
			}
		}
		good += blockHeaderLen + int64(n)
	}
}

// ScanLines calls fn with every newline-terminated line of the file at
// path, without its newline, in order; an unterminated tail is not a
// line. It only reads.
func ScanLines(path string, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineLen)
	sc.Split(terminatedLines)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// terminatedLines is bufio.ScanLines without its last rule: bytes after
// the final newline are dropped, not returned as a line.
func terminatedLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && bytes.IndexByte(data, '\n') < 0 {
		return len(data), nil, nil
	}
	return bufio.ScanLines(data, atEOF)
}

// torn says whether a read error is the end of the data (a torn tail,
// scanned past) rather than a failure to read it.
func torn(err error) bool { return err == io.EOF || err == io.ErrUnexpectedEOF }
