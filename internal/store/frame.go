// Package store is UPlan's crash-safe persistence layer: an append-only,
// CRC-framed on-disk log of plan fingerprints, campaign findings, and
// checkpoint records, with WAL-style recovery. It is the durability
// substrate the ROADMAP's fleet/service items sit on: fuzzing campaigns
// stream their discoveries through it, survive a crash at any byte, and
// resume from the recovered state with a byte-identical outcome.
//
// On disk, a log is a directory holding one append-only file,
// shard-000.log, that is a sequence of frames:
//
//	frame := magic(1) type(1) payload-length(uvarint) payload crc32c(4, LE)
//
// The CRC (Castagnoli) covers everything after the magic byte — type,
// length, and payload — so a bit flip anywhere in a frame is detected,
// never silently decoded. Open replays every shard-*.log in the directory
// (older versions spread appends over several): it verifies each frame's
// checksum, stops at the first torn or corrupt frame, truncates that tail
// off the file, and rebuilds the fingerprint index, finding set, and
// per-task progress map in one pass. The recovered prefix is exactly the
// sequence of intact frames — the truncate-anywhere property
// TestRecoverTruncateAnywhere pins — so a recovered checkpoint implies
// every frame written before it was recovered too.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// frameMagic leads every frame. A recovery scan that does not find it
	// at a frame boundary declares the tail torn.
	frameMagic = 0xF7
	// maxPayload bounds a frame's payload so a corrupted length field
	// cannot make recovery attempt an absurd read.
	maxPayload = 1 << 24
)

// Record types. Unknown types are CRC-verified and skipped during
// recovery (forward compatibility), never misparsed.
//
// 0x05 is reserved: it once carried a fingerprint plus a full binary plan
// blob. Logs that still hold such frames recover with them skipped like
// any unknown type; never reuse the byte for a different record.
const (
	recMeta     byte = 0x01 // opaque campaign configuration blob
	recPlan     byte = 0x02 // 32-byte plan fingerprint key
	recFinding  byte = 0x03 // one campaign finding (5 length-prefixed strings)
	recProgress byte = 0x04 // per-task checkpoint (identity + counters)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Frame-scan errors. errShortFrame means the buffer ends mid-frame (a
// torn tail — the expected crash shape); errCorruptFrame means the bytes
// at the boundary cannot be a frame (bad magic, oversized length, CRC
// mismatch — bit rot or a misaligned write).
var (
	errShortFrame   = errors.New("store: truncated frame")
	errCorruptFrame = errors.New("store: corrupt frame")
)

// appendFrame appends one encoded frame to dst and returns the extended
// slice. The payload is copied; dst's backing array is the only
// allocation site, so callers reusing a scratch buffer append for free.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, frameMagic, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start+1:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// parseFrame decodes the frame at the start of b, returning its type,
// payload (aliasing b), and total encoded size. errShortFrame reports a
// frame cut off by the end of the buffer; errCorruptFrame reports bytes
// that cannot be a frame at all.
func parseFrame(b []byte) (typ byte, payload []byte, size int, err error) {
	if len(b) == 0 {
		return 0, nil, 0, errShortFrame
	}
	if b[0] != frameMagic {
		return 0, nil, 0, fmt.Errorf("%w: bad magic 0x%02x", errCorruptFrame, b[0])
	}
	if len(b) < 2 {
		return 0, nil, 0, errShortFrame
	}
	typ = b[1]
	n, vn := binary.Uvarint(b[2:])
	if vn == 0 {
		return 0, nil, 0, errShortFrame
	}
	if vn < 0 || n > maxPayload {
		return 0, nil, 0, fmt.Errorf("%w: implausible payload length", errCorruptFrame)
	}
	if vn != uvarintLen(n) {
		// Only canonical (minimal) varints are ever written; a padded one
		// is corruption, and rejecting it keeps parse→re-encode an exact
		// byte-level inverse (FuzzRecordFrame relies on that).
		return 0, nil, 0, fmt.Errorf("%w: non-canonical length encoding", errCorruptFrame)
	}
	head := 2 + vn
	size = head + int(n) + 4
	if len(b) < size {
		return 0, nil, 0, errShortFrame
	}
	payload = b[head : head+int(n)]
	want := binary.LittleEndian.Uint32(b[head+int(n):])
	if crc32.Checksum(b[1:head+int(n)], castagnoli) != want {
		return 0, nil, 0, fmt.Errorf("%w: CRC mismatch", errCorruptFrame)
	}
	return typ, payload, size, nil
}

// scanFrames walks the frames of one log file's bytes, invoking fn for each
// intact frame, and returns the length of the valid prefix. Scanning
// stops — without error — at the first torn or corrupt frame: everything
// after it is the tail recovery truncates. An fn error aborts the scan
// and surfaces: a CRC-valid frame whose payload does not decode is a
// writer bug, not media corruption, and silently truncating there would
// hide it.
func scanFrames(b []byte, fn func(typ byte, payload []byte) error) (valid int, scanErr error) {
	off := 0
	for off < len(b) {
		typ, payload, size, err := parseFrame(b[off:])
		if err != nil {
			return off, nil
		}
		if err := fn(typ, payload); err != nil {
			return off, err
		}
		off += size
	}
	return off, nil
}
