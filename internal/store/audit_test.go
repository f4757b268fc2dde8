package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rationality/internal/identity"
)

// testRequest is a canonical request body for audit-column tests.
func testRequest(i int) []byte {
	req, _ := json.Marshal(map[string]any{"format": "test/v1", "game": json.RawMessage(strconv.Itoa(i))})
	return req
}

// appendRecordV2 frames one record in the pre-audit v2 layout (origin
// column, no request column) — exactly what a PR-5-era store wrote. It
// exists only in tests: production code writes v3 only.
func appendRecordV2(t *testing.T, buf []byte, r *Record) []byte {
	t.Helper()
	body, err := json.Marshal(&r.Verdict)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 0, minPayloadV2+len(r.Origin)+len(body))
	payload = append(payload, r.Key[:]...)
	payload = binary.BigEndian.AppendUint64(payload, r.Stamp)
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(r.Origin)))
	payload = append(payload, r.Origin...)
	payload = append(payload, body...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// The request column round-trips: through the tail, through recovery,
// through compaction's snapshot rewrite, and over the wire.
func TestRequestColumnRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Origin: "aa11"})
	req := testRequest(1)
	if !s.Append(testKey(1), testVerdict(1), req) {
		t.Fatal("append refused")
	}
	if !s.Append(testKey(2), testVerdict(2), nil) {
		t.Fatal("append refused")
	}
	waitFor(t, "appends", func() bool { return s.Stats().Persisted == 2 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, recs := mustOpen(t, dir, Options{Origin: "aa11"})
	byKey := map[identity.Hash]Record{}
	for _, r := range recs {
		byKey[r.Key] = r
	}
	if got := byKey[testKey(1)]; !bytes.Equal(got.Request, req) {
		t.Errorf("recovered request = %s, want %s", got.Request, req)
	}
	if got := byKey[testKey(2)]; got.Request != nil {
		t.Errorf("request-less record recovered with request %s", got.Request)
	}

	// Over the wire: a delta built from this store carries the request.
	decoded := deltaOf(t, s2, nil)
	found := false
	for _, r := range decoded {
		if r.Key == testKey(1) {
			found = true
			if !bytes.Equal(r.Request, req) {
				t.Errorf("wire request = %s, want %s", r.Request, req)
			}
		}
	}
	if !found {
		t.Fatal("delta lost the record")
	}
}

// A v2 store (origin column, no request column) upgrades on open exactly
// like v1 did: records come back with their origins and empty requests,
// the store is rewritten as v3, and new appends carry requests.
func TestOpenUpgradesV2Log(t *testing.T) {
	dir := t.TempDir()
	const peer = identity.PartyID("bb22")
	var tail []byte
	tail = append(tail, 'R', 'V', 'L', 'S', segmentV2)
	tail = appendRecordV2(t, tail, &Record{Key: testKey(0), Stamp: 1, Origin: peer, Verdict: testVerdict(0)})
	tail = appendRecordV2(t, tail, &Record{Key: testKey(1), Stamp: 2, Verdict: testVerdict(1)})
	if err := os.WriteFile(filepath.Join(dir, tailName), tail, 0o644); err != nil {
		t.Fatal(err)
	}

	s, recs, err := Open(dir, Options{Origin: "aa11"})
	if err != nil {
		t.Fatalf("v2 log must open under v3 code: %v", err)
	}
	defer s.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Request != nil {
			t.Errorf("migrated v2 record %x claims a request; nobody recorded its inputs", r.Key[:4])
		}
	}
	if recs[0].Origin != peer {
		t.Errorf("migrated record lost its origin: %q", recs[0].Origin)
	}
	// The upgrade rewrote the store: the tail now has the v3 header.
	head := make([]byte, segmentHeaderLen)
	f, err := os.Open(filepath.Join(dir, tailName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Read(head); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, segmentHeader) {
		t.Errorf("upgraded tail header = %v, want v3 %v", head, segmentHeader)
	}
	if s.Stats().Compactions != 1 {
		t.Errorf("upgrade should count as one compaction, got %d", s.Stats().Compactions)
	}

	// And the upgraded store keeps working with the request column.
	if !s.Append(testKey(2), testVerdict(2), testRequest(2)) {
		t.Fatal("append refused after upgrade")
	}
	waitFor(t, "post-upgrade append", func() bool { return s.Stats().Persisted >= 1 })
}

// A wire delta in the v2 layout (from a not-yet-upgraded peer) still
// decodes; the records just carry no requests.
func TestDecodeRecordsV2Compat(t *testing.T) {
	blob := []byte{'R', 'V', 'L', 'S', segmentV2}
	blob = appendRecordV2(t, blob, &Record{Key: testKey(3), Stamp: 7, Origin: "cc33", Verdict: testVerdict(3)})
	recs, err := DecodeRecords(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Origin != "cc33" || recs[0].Request != nil || recs[0].Stamp != 7 {
		t.Fatalf("v2 wire decode: %+v", recs)
	}
}

// Ingest refuses — and reports — records that contradict a verdict this
// store's own authority verified locally, regardless of stamp order.
func TestIngestRefutesContradictionOfLocalVerdict(t *testing.T) {
	dir := t.TempDir()
	const me = identity.PartyID("aa11")
	const liar = identity.PartyID("ff00")
	s, _ := mustOpen(t, dir, Options{Origin: me})

	v := testVerdict(0) // Accepted: true
	if !v.Accepted {
		t.Fatal("test premise: verdict 0 accepts")
	}
	if !s.Append(testKey(0), v, testRequest(0)) {
		t.Fatal("append refused")
	}
	waitFor(t, "local append", func() bool { return s.Stats().Persisted == 1 })

	lie := testVerdict(0)
	lie.Accepted = false
	lie.Reason = "byzantine flip"
	applied, refuted, err := s.Ingest([]Record{
		// Newer stamp + contradicting polarity: must be refused, not win.
		{Key: testKey(0), Stamp: 999, Origin: liar, Verdict: lie},
		// Same polarity, newer stamp: normal newest-wins ingestion.
		{Key: testKey(1), Stamp: 1000, Origin: liar, Verdict: testVerdict(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Key != testKey(1) {
		t.Fatalf("applied=%v, want only the honest record", applied)
	}
	if len(refuted) != 1 {
		t.Fatalf("refuted=%d, want 1", len(refuted))
	}
	r := refuted[0]
	if r.Record.Key != testKey(0) || r.Record.Origin != liar || !r.LocalAccepted {
		t.Errorf("refutation = %+v", r)
	}

	// The local record survived untouched: same stamp, same polarity.
	m, err := s.Manifest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m[testKey(0)].Stamp == 999 {
		t.Error("the lie's stamp overwrote the local record")
	}

	// A contradiction of a PEER-vouched record is NOT a refutation here:
	// this store never verified it locally, so newest-stamp-wins applies.
	flip := testVerdict(2)
	flip.Accepted = !flip.Accepted
	applied, refuted, err = s.Ingest([]Record{
		{Key: testKey(1), Stamp: 2000, Origin: "dd44", Verdict: flip},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refuted) != 0 || len(applied) != 1 {
		t.Errorf("peer-vs-peer contradiction: applied=%d refuted=%d, want 1/0", len(applied), len(refuted))
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The polarity index survives restart: the same lie is refuted again
	// by the reopened store.
	s2, _ := mustOpen(t, dir, Options{Origin: me})
	_, refuted, err = s2.Ingest([]Record{{Key: testKey(0), Stamp: 3000, Origin: liar, Verdict: lie}})
	if err != nil {
		t.Fatal(err)
	}
	if len(refuted) != 1 {
		t.Errorf("restart lost the refutation index: refuted=%d", len(refuted))
	}
}
