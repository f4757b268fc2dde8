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
// taken where those bytes already exist — appendRecord on write, replay on
// read — so every replica computes the same sum for the same content
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

// frame is one record frame split into its columns; every slice aliases
// the bytes the frame was parsed from, capacity clipped so an append to
// one column cannot overwrite the next.
type frame struct {
	key                            identity.Hash
	stamp                          uint64
	origin, request, cert, verdict []byte
	// n is the framed length: header plus payload.
	n int
}

// parseFrame checks the frame at the head of b and splits it. It returns
// io.EOF when b is empty (a clean segment end) and errTorn when the frame
// is short, its length prefix is out of bounds or runs past b, it fails
// its checksum, or it does not hold what its column lengths claim. A
// length prefix is checked against what b holds before anything is read
// on its say-so.
func parseFrame(b []byte) (f frame, err error) {
	if len(b) == 0 {
		return f, io.EOF
	}
	if len(b) < headerLen {
		return f, errTorn
	}
	length := int(binary.BigEndian.Uint32(b))
	if length < minPayload || length > min(len(b)-headerLen, maxPayload) {
		return f, errTorn
	}
	payload := b[headerLen : headerLen+length]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(b[4:]) || !f.split(payload) {
		return f, errTorn
	}
	f.n = headerLen + length
	return f, nil
}

// split fills f's columns from a checksummed payload and reports whether
// its length prefixes fit inside it.
func (f *frame) split(payload []byte) bool {
	copy(f.key[:], payload)
	f.stamp = binary.BigEndian.Uint64(payload[keyLen:])
	lens := payload[keyLen+stampLen : minPayload]
	olen := int(binary.BigEndian.Uint16(lens))
	qlen := int(binary.BigEndian.Uint32(lens[2:]))
	clen := int(binary.BigEndian.Uint32(lens[6:]))
	if olen > maxOrigin || qlen > maxPayload || clen > maxPayload ||
		minPayload+olen+qlen+clen > len(payload) {
		return false
	}
	cols := payload[minPayload:]
	q, c := olen+qlen, olen+qlen+clen
	f.origin, f.request, f.cert, f.verdict = cols[:olen:olen], cols[olen:q:q], cols[q:c:c], cols[c:]
	return true
}

// decodeRecord decodes the frame at the head of b into rec and returns
// its framed length. rec owns a fresh copy of the payload — Request and
// Cert alias it — never b. The verdict is decoded by json.Unmarshal;
// only a wire delta and readStanding come here, never replay. Errors are
// parseFrame's, plus errTorn for a verdict json.Unmarshal refuses.
func decodeRecord(b []byte, rec *Record) (int, error) {
	f, err := parseFrame(b)
	if err != nil {
		return 0, err
	}
	f.split(bytes.Clone(b[headerLen:f.n]))
	var v core.Verdict
	if err := json.Unmarshal(f.verdict, &v); err != nil {
		// The CRC passed, so these bytes are what the writer wrote — a
		// writer bug, not a torn write. Treat it like corruption anyway:
		// salvage stops here rather than guessing at the next frame.
		return 0, errTorn
	}
	*rec = Record{Key: f.key, Stamp: f.stamp, Origin: identity.PartyID(f.origin), Verdict: v}
	if len(f.request) > 0 {
		rec.Request = json.RawMessage(f.request)
	}
	if len(f.cert) > 0 {
		rec.Cert = f.cert
	}
	return f.n, nil
}

// canonicalVerdict vets a stored verdict without decoding it where it can:
// ok when the bytes are a verdict, with its polarity and canon — nil when
// the bytes already are what core.Verdict.AppendJSON writes for the
// verdict they hold (core.CanonicalVerdict), and otherwise that
// re-encoding of what json.Unmarshal decodes. A verdict json.Unmarshal
// refuses is not ok, just as in decodeRecord.
func canonicalVerdict(body []byte) (accepted bool, canon []byte, ok bool) {
	if accepted, ok := core.CanonicalVerdict(body); ok {
		return accepted, nil, true
	}
	var v core.Verdict
	if json.Unmarshal(body, &v) != nil {
		return false, nil, false
	}
	return v.Accepted, v.AppendJSON(nil), true
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
