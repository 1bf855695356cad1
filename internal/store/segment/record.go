// Package segment implements a durable fact store: a journal over a
// private *database.Database mirror, kept as an append-only write-ahead
// log plus periodic snapshots, all in a single directory. Every mutation
// is applied to the mirror and journaled, Commit makes the journaled
// prefix durable, and readers get a Clone of the mirror, so engines only
// ever see a *database.Database. On open, the log's torn tail (anything
// past the last valid commit record) is discarded, so a crash never
// loses committed data and never surfaces uncommitted data.
//
// Record framing (all integers big-endian):
//
//	record  := len(u32) payload crc32(u32)
//	payload := type(u8) body
//
// len counts payload bytes; the CRC (IEEE) covers the payload. Bodies:
//
//	term    kind(u8) name…                    — intern next dense id
//	rel     annArity(u16) arity(u16) name…    — intern next relation id
//	add     relID(u32) id(u32)…               — AddNotify of the fact
//	del     relID(u32) id(u32)…               — DeleteNotify of the fact
//	commit  version(u64)                      — durability barrier
//	fact    relID(u32) id(u32)…               — snapshot: raw insert
//	support termID(u32) count(u32)            — snapshot: ACDom refcount
//	pin     termID(u32)                       — snapshot: ACDom pin
//
// The add/del/fact body is exactly PackKey(relID, ids): a big-endian,
// sort-order-preserving packed key, ready for the disk-segment iterators
// of ROADMAP item 3.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	recTerm byte = iota + 1
	recRel
	recAdd
	recDel
	recCommit
	recFact
	recSupport
	recPin
)

// maxRecordLen bounds a single payload; names are the only variable-size
// component and never come close.
const maxRecordLen = 1 << 28

// PackKey appends the big-endian packed (relID, id-tuple) key to dst.
// bytes.Compare on packed keys agrees with lexicographic order on
// (relID, ids): big-endian fixed-width encoding is order-preserving.
func PackKey(dst []byte, relID uint32, ids []uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, relID)
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, id)
	}
	return dst
}

// UnpackKey splits a packed key into its relation id and term ids. The
// returned ids slice aliases nothing; ok is false on a malformed key.
func UnpackKey(key []byte) (relID uint32, ids []uint32, ok bool) {
	if len(key) < 4 || len(key)%4 != 0 {
		return 0, nil, false
	}
	relID = binary.BigEndian.Uint32(key)
	rest := key[4:]
	ids = make([]uint32, len(rest)/4)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint32(rest[i*4:])
	}
	return relID, ids, true
}

// appendRecord frames a payload: length, payload, CRC.
func appendRecord(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// recordReader decodes framed records from a byte stream, tracking the
// offset after each successfully decoded record so the caller can locate
// the last commit and truncate the torn tail.
type recordReader struct {
	r   io.Reader
	off int64 // offset after the last decoded record
	buf []byte
}

// next returns the payload of the next record. It returns io.EOF at a
// clean end of stream and a wrapped errCorrupt for a torn or damaged
// record; in both cases r.off remains the offset after the last good
// record.
func (rr *recordReader) next() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn header at %d", errCorrupt, rr.off)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxRecordLen {
		return nil, fmt.Errorf("%w: bad length %d at %d", errCorrupt, n, rr.off)
	}
	if cap(rr.buf) < int(n)+4 {
		rr.buf = make([]byte, int(n)+4)
	}
	body := rr.buf[:int(n)+4]
	if _, err := io.ReadFull(rr.r, body); err != nil {
		return nil, fmt.Errorf("%w: torn body at %d", errCorrupt, rr.off)
	}
	payload := body[:n]
	want := binary.BigEndian.Uint32(body[n:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: checksum mismatch at %d", errCorrupt, rr.off)
	}
	rr.off += int64(4 + n + 4)
	return payload, nil
}
