package history

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// On-disk framing, shared by data segments and rollup logs: an 8-byte
// magic header, then a sequence of checksummed blocks
//
//	[u32 payload length][u32 CRC-32 (IEEE) of payload][payload]
//
// in little-endian byte order. A block becomes durable with ordinary
// write(2) calls — a kill -9 can only tear the final block, and recovery
// truncates the file back to the last block whose checksum verifies, so
// nothing that was acknowledged (written in a completed block) is ever
// lost and nothing torn is ever served.
//
// Data-segment payloads are a run of fixed 20-byte point records:
//
//	[u32 series id][i64 unix-second timestamp][u64 float64 bits]
//
// Rollup-log payloads carry one segment's bucket aggregates; see
// rollup.go for the record layout.
const (
	segMagic    = "RQHSEG1\n"
	rollupMagic = "RQHROL1\n"

	blockHeaderLen = 8
	pointRecordLen = 20

	// maxBlockLen bounds a block read during recovery so a corrupt length
	// field cannot provoke a huge allocation.
	maxBlockLen = 64 << 20
)

// writeMagic writes a fresh file's magic header.
func writeMagic(f *os.File, magic string) error {
	_, err := f.WriteString(magic)
	return err
}

// appendBlock frames and appends one payload to f. The header and payload
// are written separately; a crash between the two leaves a torn block that
// recovery truncates.
func appendBlock(f *os.File, hdr *[blockHeaderLen]byte, payload []byte) error {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	_, err := f.Write(payload)
	return err
}

// putPoint encodes one point record at buf[off:].
//
//raqo:noalloc
func putPoint(buf []byte, sid uint32, ts int64, bits uint64) {
	binary.LittleEndian.PutUint32(buf[0:4], sid)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(ts))
	binary.LittleEndian.PutUint64(buf[12:20], bits)
}

// scanResult summarizes one recovered file.
type scanResult struct {
	goodLen int64 // offset of the last verified block's end
	torn    bool  // trailing bytes beyond goodLen were discarded
	blocks  int
}

// scanBlocks reads a framed file, calling fn for every payload whose
// checksum verifies, and reports where the verified prefix ends. A short
// header, short payload or checksum mismatch ends the scan: everything
// before it is good, everything after is a torn tail.
func scanBlocks(path, magic string, fn func(payload []byte) error) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()

	head := make([]byte, len(magic))
	if _, err := io.ReadFull(f, head); err != nil {
		// A file shorter than its magic is an interrupted create: treat the
		// whole file as torn.
		return scanResult{goodLen: 0, torn: true}, nil
	}
	if string(head) != magic {
		return scanResult{}, fmt.Errorf("history: %s: bad magic %q", path, head)
	}

	res := scanResult{goodLen: int64(len(magic))}
	var hdr [blockHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			res.torn = err != io.EOF
			return res, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxBlockLen {
			res.torn = true
			return res, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			res.torn = true
			return res, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			res.torn = true
			return res, nil
		}
		if err := fn(payload); err != nil {
			return res, err
		}
		res.goodLen += int64(blockHeaderLen) + int64(n)
		res.blocks++
	}
}

// recoverFile scans a framed file and truncates any torn tail so the next
// append starts at a verified block boundary.
func recoverFile(path, magic string, fn func(payload []byte) error) (scanResult, error) {
	res, err := scanBlocks(path, magic, fn)
	if err != nil {
		return res, err
	}
	if res.torn {
		if err := os.Truncate(path, res.goodLen); err != nil {
			return res, fmt.Errorf("history: truncating torn tail of %s: %w", path, err)
		}
	}
	return res, nil
}

// eachPoint is the block callback that decodes a data segment's payload,
// calling fn per point record. Records are fixed-width, so a payload is
// always a whole number of points.
func eachPoint(path string, fn func(sid uint32, ts int64, bits uint64)) func(payload []byte) error {
	return func(payload []byte) error {
		if len(payload)%pointRecordLen != 0 {
			return fmt.Errorf("history: %s: block payload %d not a whole number of points", path, len(payload))
		}
		for ; len(payload) > 0; payload = payload[pointRecordLen:] {
			fn(getPoint(payload))
		}
		return nil
	}
}

// getPoint decodes the point record at the head of buf.
func getPoint(buf []byte) (sid uint32, ts int64, bits uint64) {
	return binary.LittleEndian.Uint32(buf[0:4]), int64(binary.LittleEndian.Uint64(buf[4:12])), binary.LittleEndian.Uint64(buf[12:20])
}
