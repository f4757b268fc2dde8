package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"rationality/internal/core"
	"rationality/internal/identity"
)

// Segment framing. A segment file is a five-byte version header followed
// by a plain concatenation of records, each independently checksummed so
// a reader can detect exactly where a torn write begins:
//
//	offset  size  field
//	------  ----  -----------------------------------------------
//	0       4     magic   "RVLS" (rationality verdict-log segment)
//	4       1     version 4
//	then per record:
//	0       4     length  uint32 BE — byte length of the payload
//	4       4     crc     uint32 BE — CRC32C (Castagnoli) of payload
//	8       len   payload:
//	          32     key     identity.Hash (raw SHA-256 content address)
//	          8      stamp   uint64 BE (monotonic append sequence)
//	          2      olen    uint16 BE — byte length of origin
//	          4      qlen    uint32 BE — byte length of request
//	          4      clen    uint32 BE — byte length of cert
//	          olen   origin  identity.PartyID of the vouching authority
//	                         (hex Ed25519 public key; empty = unattributed)
//	          qlen   request (JSON-encoded core.VerifyRequest — the inputs
//	                         the verdict was computed from; empty = nobody
//	                         recorded them and the record cannot be audited)
//	          clen   cert    (JSON-encoded core.Certificate — the aggregate
//	                         quorum certificate vouching for the verdict;
//	                         empty = uncertified)
//	          rest   verdict (JSON-encoded core.Verdict)
//
// This is the only layout the store reads or writes, on disk and on the
// wire. A segment or blob that does not open with these five bytes is
// refused with errVersion and its file left untouched — guessing at another
// layout's record boundaries could only truncate someone's history.
//
// The CRC covers the whole payload (key, stamp, origin, request, cert and
// verdict), so a flipped bit anywhere in a record is detected; the length
// prefix is implicitly protected because a corrupted length makes the CRC
// check of the mis-framed payload fail (except with probability 2^-32).

// crcTable is the Castagnoli polynomial table; CRC32C has hardware support
// on amd64/arm64, so framing costs no measurable CPU next to the syscall.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentHeader is the five-byte prefix of every written segment (and of
// every wire-framed delta): the magic plus the one version there is.
var segmentHeader = []byte{'R', 'V', 'L', 'S', 4}

const (
	// segmentHeaderLen is the length of the per-file version header.
	segmentHeaderLen = 5
	// headerLen is the fixed per-record frame header: length + CRC.
	headerLen = 8
	// keyLen is the raw content-address length inside the payload.
	keyLen = len(identity.Hash{})
	// stampLen is the monotonic stamp length inside the payload.
	stampLen = 8
	// minPayload is the smallest well-formed payload — key, stamp and the
	// origin (2), request (4) and certificate (4) length prefixes — so the
	// frame reader can reject a length field before allocating.
	minPayload = keyLen + stampLen + 2 + 4 + 4
	// maxOrigin bounds the origin column. A party ID is 64 bytes of hex;
	// anything much longer is corruption, not an identity.
	maxOrigin = 256
	// maxPayload bounds a single record. Announcements are wire messages
	// (games, advice, proofs as JSON) and verdicts are small; a length
	// beyond this is corruption, not data, and the reader must not
	// allocate gigabytes on a torn length field's say-so.
	maxPayload = 16 << 20
)

// Record is one persisted verdict: the cache key, the monotonic append
// stamp (larger = written later; replay keeps the largest per key), the
// identity of the authority that vouched for the record's entry into this
// log (the local authority for fresh verdicts, the signing peer for
// ingested ones; empty on unkeyed deployments), the request the verdict
// was computed from (JSON core.VerifyRequest; a record without one cannot
// be re-audited), the aggregate quorum certificate vouching for the
// verdict (JSON core.Certificate; empty on uncertified records), and the
// verdict itself.
type Record struct {
	Key     identity.Hash
	Stamp   uint64
	Origin  identity.PartyID
	Request json.RawMessage
	Cert    []byte
	Verdict core.Verdict
}

// Segments a live frame can sit in.
const (
	segSnap = iota // the compacted snapshot (verdicts.snap)
	segTail        // the append-only tail (verdicts.log)
)

// loc addresses one record frame on disk: which segment, the byte offset
// of the frame's length prefix, and the framed length (header + payload).
type loc struct {
	off int64
	n   int32
	seg uint8
}

// idxEntry is one index line, the standing record of a key as the store
// keeps it in memory. Stamp, polarity and the two column bits are what
// merge ranks an incoming version of the key by without re-reading the
// log; the content sum lets a delta tell "newer content" from "merely
// re-stamped" (compaction's warmth re-ranking does the latter on every
// pass); the origin also feeds the Provenance summary without a disk scan.
// The location — filled by replay and by every append, rewritten by every
// snapshot — is what lets Delta, Records and the merge's carry-forward
// read exactly the frames they want instead of scanning the log for them.
type idxEntry struct {
	stamp  uint64
	origin identity.PartyID
	loc
	sum        uint32
	accepted   bool
	certified  bool
	hasRequest bool
}

// entryFor is the index line of a record about to sit at at, given its
// content sum.
func entryFor(r *Record, sum uint32, at loc) idxEntry {
	return idxEntry{
		stamp: r.Stamp, sum: sum, origin: r.Origin, loc: at,
		accepted: r.Verdict.Accepted, certified: len(r.Cert) > 0, hasRequest: len(r.Request) > 0,
	}
}

// contentSum is the content checksum the index and sync manifests carry:
// CRC32C over the framed verdict bytes extended with the certificate bytes,
// taken where those bytes already exist — appendRecord on write, readRecord
// on read — so every replica computes the same sum for the same content
// regardless of which one first persisted it or which authority's
// provenance it carries (the origin column is deliberately excluded:
// replicas converge on content, not on custody chains). Including the
// certificate means a record that gains a quorum certificate reads as new
// content to anti-entropy and gossip, so certificates propagate even where
// the bare verdict already converged.
func contentSum(body, cert []byte) uint32 {
	return crc32.Update(crc32.Checksum(body, crcTable), crcTable, cert)
}

// appendRecord encodes a record onto buf and returns the extended slice
// plus the record's content checksum; on error buf comes back as it was.
// The frame is assembled in memory first so the file write is a single
// contiguous append — the closest a userspace writer gets to atomicity.
// The verdict goes through its append encoder, byte for byte what
// json.Marshal writes.
func appendRecord(buf []byte, r *Record) ([]byte, uint32, error) {
	if len(r.Origin) > maxOrigin {
		return buf, 0, fmt.Errorf("store: origin of %d bytes exceeds the %d-byte bound", len(r.Origin), maxOrigin)
	}
	start := len(buf)
	out := append(buf, make([]byte, headerLen)...)
	out = append(out, r.Key[:]...)
	out = binary.BigEndian.AppendUint64(out, r.Stamp)
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.Origin)))
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Request)))
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Cert)))
	out = append(out, r.Origin...)
	out = append(out, r.Request...)
	out = append(out, r.Cert...)
	bodyAt := len(out)
	out = r.Verdict.AppendJSON(out)
	if bytes.Contains(out[bodyAt:], []byte(`\ufffd`)) {
		// A byte that is not UTF-8 is written as this escape but decodes to
		// the rune itself, which re-encodes as three raw bytes: a reader
		// (reopen, a replica's Ingest) would sum different bytes than this
		// writer. One decode → encode round trip reaches the fixed point,
		// so the stored bytes — and the sum — are a function of the verdict.
		var v core.Verdict
		if err := json.Unmarshal(out[bodyAt:], &v); err != nil {
			return buf, 0, fmt.Errorf("store: encoding verdict: %w", err)
		}
		out = v.AppendJSON(out[:bodyAt])
	}
	payload := out[start+headerLen:]
	if len(payload) > maxPayload {
		return buf, 0, fmt.Errorf("store: record of %d bytes exceeds the %d-byte bound", len(payload), maxPayload)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[start+4:], crc32.Checksum(payload, crcTable))
	return out, contentSum(out[bodyAt:], r.Cert), nil
}

// errTorn reports a frame that cannot be trusted: a short read, a length
// field out of bounds, or a CRC mismatch. It marks the end of a segment's
// valid prefix rather than a fatal store error.
var errTorn = errors.New("store: torn or corrupt record")

// errVersion reports a segment or wire blob that does not open with the
// segment header — an older layout, a newer one, or not a segment at all.
var errVersion = errors.New("store: unsupported segment version")

// checkHeader vets the first bytes of a segment or wire blob. A prefix
// shorter than the header that the header starts with is a header torn by
// a crash (errTorn: nothing was ever written behind it); anything else
// that is not the header is errVersion.
func checkHeader(head []byte) error {
	switch {
	case bytes.Equal(head, segmentHeader):
		return nil
	case len(head) < segmentHeaderLen && bytes.HasPrefix(segmentHeader, head):
		return errTorn
	}
	return fmt.Errorf("%w: it opens with %q, not %q", errVersion, head, segmentHeader)
}

// readRecord decodes the next record from r — whose Request and Cert then
// alias one fresh payload buffer — and returns its framed size in bytes
// and its content sum. limit is the longest payload the source can hold:
// a length prefix beyond it is refused before anything is allocated on its
// say-so. It returns io.EOF at a clean segment end, errTorn when the next
// frame is short, over-long, fails its checksum or does not hold what its
// length prefixes claim, and any other error verbatim (a real I/O failure).
func readRecord(r io.Reader, rec *Record, limit int) (int, uint32, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF // clean end: no partial header
		}
		if err == io.ErrUnexpectedEOF {
			return 0, 0, errTorn // header itself is torn
		}
		return 0, 0, err
	}
	length := int(binary.BigEndian.Uint32(header[:4]))
	if length < minPayload || length > min(limit, maxPayload) {
		return 0, 0, errTorn
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, 0, errTorn // payload shorter than its header promised
		}
		return 0, 0, err
	}
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(header[4:]) {
		return 0, 0, errTorn
	}
	copy(rec.Key[:], payload)
	rec.Stamp = binary.BigEndian.Uint64(payload[keyLen:])
	lens := payload[keyLen+stampLen : minPayload]
	olen := int(binary.BigEndian.Uint16(lens))
	qlen := int(binary.BigEndian.Uint32(lens[2:]))
	clen := int(binary.BigEndian.Uint32(lens[6:]))
	if olen > maxOrigin || qlen > maxPayload || clen > maxPayload ||
		minPayload+olen+qlen+clen > length {
		return 0, 0, errTorn
	}
	cols := payload[minPayload:]
	rec.Origin = identity.PartyID(cols[:olen])
	rec.Request, rec.Cert = nil, nil
	if qlen > 0 {
		rec.Request = json.RawMessage(cols[olen : olen+qlen])
	}
	if clen > 0 {
		rec.Cert = cols[olen+qlen : olen+qlen+clen]
	}
	body := cols[olen+qlen+clen:]
	rec.Verdict = core.Verdict{}
	if err := json.Unmarshal(body, &rec.Verdict); err != nil {
		// The CRC passed, so these bytes are what the writer wrote — a
		// writer bug, not a torn write. Treat it like corruption anyway:
		// salvage stops here rather than guessing at the next frame.
		return 0, 0, errTorn
	}
	return headerLen + length, contentSum(body, rec.Cert), nil
}

// checkFrame verifies that frame — bytes read back from a location the
// index recorded — is the intact frame of the record the index says it
// is: the length prefix spans exactly the frame, the CRC holds, and the
// payload opens with the expected key and stamp. The last two catch what
// a CRC alone cannot: a stale location pointing at some other record's
// perfectly valid frame.
func checkFrame(frame []byte, key identity.Hash, stamp uint64) error {
	if len(frame) < headerLen+minPayload ||
		int(binary.BigEndian.Uint32(frame[:4])) != len(frame)-headerLen {
		return errTorn
	}
	payload := frame[headerLen:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(frame[4:8]) {
		return errTorn
	}
	if identity.Hash(payload[:keyLen]) != key ||
		binary.BigEndian.Uint64(payload[keyLen:keyLen+stampLen]) != stamp {
		return errTorn
	}
	return nil
}
