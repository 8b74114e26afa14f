package history

import (
	"encoding/binary"
	"fmt"
)

// Data segments and rollup logs are block-framed applog files: an 8-byte
// magic header, then checksummed blocks (see internal/applog). A block is
// written with one write(2) and acknowledged once that write returned; a
// kill -9 can only tear the final block, and recovery truncates the file
// back to the last block whose checksum verifies, so nothing acknowledged
// is lost and nothing torn is ever served.
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

	pointRecordLen = 20
)

// putPoint encodes one point record at buf[off:].
func putPoint(buf []byte, sid uint32, ts int64, bits uint64) {
	binary.LittleEndian.PutUint32(buf[0:4], sid)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(ts))
	binary.LittleEndian.PutUint64(buf[12:20], bits)
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
