package store

import (
	"bufio"
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
//	                         the verdict was computed from; empty = the
//	                         record predates v3 and cannot be re-audited)
//	          clen   cert    (JSON-encoded core.Certificate — the aggregate
//	                         quorum certificate vouching for the verdict;
//	                         empty = uncertified)
//	          rest   verdict (JSON-encoded core.Verdict)
//
// Version 1 segments — everything written before the federation change —
// have no header and no origin column: the payload is key, stamp, verdict.
// A reader distinguishes the formats by the magic: v1 could never start
// with "RVLS" because a record's first four bytes are a big-endian length
// far below 0x52564c53. Version 2 added the header and the origin column;
// version 3 added the request column (what lets any authority re-run the
// verification procedure for any record it holds — the audit loop's raw
// material); version 4 adds the certificate column, which makes aggregate
// quorum certificates first-class records that warm-start, compact and
// replicate exactly like the verdicts they certify. v1, v2 and v3
// segments are read transparently (missing columns come back empty) and
// upgraded to v4 the first time the store opens them; v4 is the only
// format ever written.
//
// The CRC covers the whole payload (key, stamp, origin, request, cert and
// verdict), so a flipped bit anywhere in a record is detected; the length
// prefix is implicitly protected because a corrupted length makes the CRC
// check of the mis-framed payload fail (except with probability 2^-32).

// crcTable is the Castagnoli polynomial table; CRC32C has hardware support
// on amd64/arm64, so framing costs no measurable CPU next to the syscall.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Segment format versions. segmentV1 is the legacy headerless layout (no
// origin column); segmentV2 added the header and origin; segmentV3 added
// the request column; segmentV4 — the current layout — adds the
// certificate column.
const (
	segmentV1 = 1
	segmentV2 = 2
	segmentV3 = 3
	segmentV4 = 4
)

// segmentHeader is the five-byte prefix of every written segment (and of
// every wire-framed delta): the magic plus the current version.
var segmentHeader = []byte{'R', 'V', 'L', 'S', segmentV4}

const (
	// segmentHeaderLen is the length of the per-file version header.
	segmentHeaderLen = 5
	// headerLen is the fixed per-record frame header: length + CRC.
	headerLen = 8
	// keyLen is the raw content-address length inside the payload.
	keyLen = len(identity.Hash{})
	// stampLen is the monotonic stamp length inside the payload.
	stampLen = 8
	// originLenLen is the origin length prefix inside a v2+ payload.
	originLenLen = 2
	// requestLenLen is the request length prefix inside a v3+ payload.
	requestLenLen = 4
	// certLenLen is the certificate length prefix inside a v4 payload.
	certLenLen = 4
	// minPayloadV1 / minPayloadV2 / minPayloadV3 / minPayloadV4 bound the
	// smallest well-formed payload per format version, so the frame reader
	// can reject a length field before allocating.
	minPayloadV1 = keyLen + stampLen
	minPayloadV2 = keyLen + stampLen + originLenLen
	minPayloadV3 = keyLen + stampLen + originLenLen + requestLenLen
	minPayloadV4 = keyLen + stampLen + originLenLen + requestLenLen + certLenLen
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
// stamp (larger = written later; recovery keeps the largest per key), the
// identity of the authority that vouched for the record's entry into this
// log (the local authority for fresh verdicts, the signing peer for
// ingested ones; empty on unkeyed deployments and legacy v1 records), the
// request the verdict was computed from (JSON core.VerifyRequest; empty
// on records that predate the v3 format — those cannot be re-audited),
// the aggregate quorum certificate vouching for the verdict (JSON
// core.Certificate; empty on uncertified records and everything that
// predates the v4 format), and the verdict itself.
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

// idxEntry is one on-disk index line: the newest stamp a key holds, the
// checksum of the verdict content at that stamp, the record's origin, the
// verdict's polarity, whether a quorum certificate rides the record, and
// where the frame sits on disk. The sum lets the anti-entropy manifest
// distinguish "peer has newer content" from "peer merely re-stamped
// identical content" (compaction's warmth re-ranking does the latter on
// every pass), so stamp churn never causes a re-transfer. The origin
// feeds the Provenance summary without a disk scan; the polarity lets
// Ingest refute an incoming record that contradicts a locally verified
// one without re-reading the log; the certified bit is what the merge
// rule (supersedes) ranks above stamps. The location — filled by recovery
// replay and by every append, rewritten by every snapshot — is what lets
// Delta and Records read exactly the frames they ship instead of scanning
// the log for them.
type idxEntry struct {
	stamp  uint64
	origin identity.PartyID
	loc
	sum       uint32
	accepted  bool
	certified bool
}

// entryFor is the index line of a record about to sit at at, given its
// content sum.
func entryFor(r *Record, sum uint32, at loc) idxEntry {
	return idxEntry{
		stamp: r.Stamp, sum: sum, origin: r.Origin,
		accepted: r.Verdict.Accepted, certified: len(r.Cert) > 0, loc: at,
	}
}

// recordSum is the content checksum the index and sync manifests carry:
// CRC32C over the canonical JSON encoding of the verdict extended with
// the certificate bytes — the exact bytes appendRecord frames, so every
// replica computes the same sum for the same content regardless of which
// one first persisted it or which authority's provenance it carries (the
// origin column is deliberately excluded: replicas converge on content,
// not on custody chains). Including the certificate means a record that
// gains a quorum certificate reads as new content to anti-entropy and
// gossip, so certificates propagate even where the bare verdict already
// converged.
func recordSum(r *Record) uint32 {
	body, err := json.Marshal(&r.Verdict)
	if err != nil {
		return 0 // unencodable: writeStamped will refuse it anyway
	}
	sum := crc32.Checksum(body, crcTable)
	if len(r.Cert) > 0 {
		sum = crc32.Update(sum, crcTable, r.Cert)
	}
	return sum
}

// appendRecord encodes a record onto buf in the v4 layout and returns the
// extended slice plus the record's content checksum (computed here, where
// the verdict bytes already exist, so the index never pays a second
// marshal). The frame is assembled in memory first so the file write is a
// single contiguous append — the closest a userspace writer gets to
// atomicity.
func appendRecord(buf []byte, r *Record) ([]byte, uint32, error) {
	body, err := json.Marshal(&r.Verdict)
	if err != nil {
		return buf, 0, fmt.Errorf("store: encoding verdict: %w", err)
	}
	if len(r.Origin) > maxOrigin {
		return buf, 0, fmt.Errorf("store: origin of %d bytes exceeds the %d-byte bound", len(r.Origin), maxOrigin)
	}
	payloadLen := minPayloadV4 + len(r.Origin) + len(r.Request) + len(r.Cert) + len(body)
	if payloadLen > maxPayload {
		return buf, 0, fmt.Errorf("store: record of %d bytes exceeds the %d-byte bound", payloadLen, maxPayload)
	}
	start := len(buf)
	buf = append(buf, make([]byte, headerLen)...)
	buf = append(buf, r.Key[:]...)
	buf = binary.BigEndian.AppendUint64(buf, r.Stamp)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Origin)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Request)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Cert)))
	buf = append(buf, r.Origin...)
	buf = append(buf, r.Request...)
	buf = append(buf, r.Cert...)
	buf = append(buf, body...)
	payload := buf[start+headerLen:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	sum := crc32.Checksum(body, crcTable)
	if len(r.Cert) > 0 {
		sum = crc32.Update(sum, crcTable, r.Cert)
	}
	return buf, sum, nil
}

// errTorn reports a frame that cannot be trusted: a short read, a length
// field out of bounds, or a CRC mismatch. It marks the end of a segment's
// valid prefix rather than a fatal store error.
var errTorn = errors.New("store: torn or corrupt record")

// errVersion reports a segment or wire blob whose header names a format
// version this code does not speak — refusing it outright beats guessing
// at an unknown layout's record boundaries.
var errVersion = errors.New("store: unsupported segment version")

// sniffVersion peeks at the reader's first bytes and consumes the segment
// header when one is present, returning the format version to read
// records with. A stream that does not start with the magic is a legacy
// v1 segment and is left unconsumed; a stream with the magic but an
// unknown version is refused.
func sniffVersion(br *bufio.Reader) (int, error) {
	head, err := br.Peek(segmentHeaderLen)
	if err != nil {
		// Shorter than a header: whatever it is (empty file, torn v1
		// record), the v1 record reader gives the right answer.
		return segmentV1, nil
	}
	if string(head[:4]) != string(segmentHeader[:4]) {
		return segmentV1, nil
	}
	if head[4] != segmentV2 && head[4] != segmentV3 && head[4] != segmentV4 {
		return 0, fmt.Errorf("%w: %d", errVersion, head[4])
	}
	br.Discard(segmentHeaderLen)
	return int(head[4]), nil
}

// readRecord decodes the next record from r using the given format
// version and returns its framed size in bytes. It returns io.EOF at a
// clean segment end, errTorn when the next frame is short, over-long or
// fails its checksum, and any other error verbatim (a real I/O failure).
func readRecord(r io.Reader, rec *Record, version int) (int, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF // clean end: no partial header
		}
		if err == io.ErrUnexpectedEOF {
			return 0, errTorn // header itself is torn
		}
		return 0, err
	}
	minPayload := minPayloadV1
	switch {
	case version >= segmentV4:
		minPayload = minPayloadV4
	case version >= segmentV3:
		minPayload = minPayloadV3
	case version >= segmentV2:
		minPayload = minPayloadV2
	}
	length := int(binary.BigEndian.Uint32(header[:4]))
	if length < minPayload || length > maxPayload {
		return 0, errTorn
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, errTorn // payload shorter than its header promised
		}
		return 0, err
	}
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(header[4:8]) {
		return 0, errTorn
	}
	copy(rec.Key[:], payload[:keyLen])
	rec.Stamp = binary.BigEndian.Uint64(payload[keyLen : keyLen+stampLen])
	body := payload[minPayloadV1:]
	rec.Origin = ""
	rec.Request = nil
	rec.Cert = nil
	switch {
	case version >= segmentV4:
		olen := int(binary.BigEndian.Uint16(payload[keyLen+stampLen : keyLen+stampLen+originLenLen]))
		qlen := int(binary.BigEndian.Uint32(payload[keyLen+stampLen+originLenLen : minPayloadV3]))
		clen := int(binary.BigEndian.Uint32(payload[minPayloadV3:minPayloadV4]))
		if olen > maxOrigin || qlen > maxPayload || clen > maxPayload ||
			minPayloadV4+olen+qlen+clen > length {
			return 0, errTorn
		}
		rec.Origin = identity.PartyID(payload[minPayloadV4 : minPayloadV4+olen])
		if qlen > 0 {
			rec.Request = json.RawMessage(payload[minPayloadV4+olen : minPayloadV4+olen+qlen])
		}
		if clen > 0 {
			rec.Cert = payload[minPayloadV4+olen+qlen : minPayloadV4+olen+qlen+clen]
		}
		body = payload[minPayloadV4+olen+qlen+clen:]
	case version >= segmentV3:
		olen := int(binary.BigEndian.Uint16(payload[keyLen+stampLen : keyLen+stampLen+originLenLen]))
		qlen := int(binary.BigEndian.Uint32(payload[keyLen+stampLen+originLenLen : minPayloadV3]))
		if olen > maxOrigin || qlen > maxPayload || minPayloadV3+olen+qlen > length {
			return 0, errTorn
		}
		rec.Origin = identity.PartyID(payload[minPayloadV3 : minPayloadV3+olen])
		if qlen > 0 {
			rec.Request = json.RawMessage(payload[minPayloadV3+olen : minPayloadV3+olen+qlen])
		}
		body = payload[minPayloadV3+olen+qlen:]
	case version >= segmentV2:
		olen := int(binary.BigEndian.Uint16(payload[keyLen+stampLen : minPayloadV2]))
		if olen > maxOrigin || minPayloadV2+olen > length {
			return 0, errTorn
		}
		rec.Origin = identity.PartyID(payload[minPayloadV2 : minPayloadV2+olen])
		body = payload[minPayloadV2+olen:]
	}
	rec.Verdict = core.Verdict{}
	if err := json.Unmarshal(body, &rec.Verdict); err != nil {
		// The CRC passed, so these bytes are what the writer wrote — a
		// writer bug, not a torn write. Treat it like corruption anyway:
		// salvage stops here rather than guessing at the next frame.
		return 0, errTorn
	}
	return headerLen + int(length), nil
}

// checkFrame verifies that frame — bytes read back from a location the
// index recorded — is the intact v4 frame of the record the index says it
// is: the length prefix spans exactly the frame, the CRC holds, and the
// payload opens with the expected key and stamp. The last two catch what
// a CRC alone cannot: a stale location pointing at some other record's
// perfectly valid frame.
func checkFrame(frame []byte, key identity.Hash, stamp uint64) error {
	if len(frame) < headerLen+minPayloadV4 ||
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
