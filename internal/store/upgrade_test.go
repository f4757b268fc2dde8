package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rationality/internal/identity"
)

// appendRecordV1 frames one record in the legacy pre-federation layout:
// no segment header, no origin column — exactly what a v1 store wrote.
// It exists only in tests (and mirrors the fixture generator): production
// code writes v2 only.
func appendRecordV1(t *testing.T, buf []byte, r *Record) []byte {
	t.Helper()
	body, err := json.Marshal(&r.Verdict)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 0, keyLen+stampLen+len(body))
	payload = append(payload, r.Key[:]...)
	payload = binary.BigEndian.AppendUint64(payload, r.Stamp)
	payload = append(payload, body...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// TestOpenUpgradesV1Log is the federation upgrade path: a log written by
// the pre-provenance store must warm-start under the current code, come
// back rewritten in the v2 format, and keep working — new appends carry
// the configured origin while the migrated history stays unattributed.
func TestOpenUpgradesV1Log(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	var tail []byte
	for i := 0; i < n; i++ {
		tail = appendRecordV1(t, tail, &Record{Key: testKey(i), Stamp: uint64(i + 1), Verdict: testVerdict(i)})
	}
	if err := os.WriteFile(filepath.Join(dir, tailName), tail, 0o644); err != nil {
		t.Fatal(err)
	}

	const me = identity.PartyID("aa11")
	s, recs, err := Open(dir, Options{Origin: me})
	if err != nil {
		t.Fatalf("v1 log must open under v2 code: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records from the v1 log, want %d", len(recs), n)
	}
	for _, r := range recs {
		if r.Origin != "" {
			t.Fatalf("migrated v1 record claims origin %q; nobody signed for it", r.Origin)
		}
	}
	if st := s.Stats(); st.Compactions != 1 {
		t.Fatalf("upgrade rewrite must count as one compaction, got %d", st.Compactions)
	}

	// The store must now be pure v2 on disk: snapshot and tail both carry
	// the version header.
	for _, name := range []string{snapshotName, tailName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, segmentHeader) {
			t.Fatalf("%s not rewritten to v2 after upgrade (starts %x)", name, data[:min(8, len(data))])
		}
	}

	// And it must keep working: a fresh append lands with the configured
	// origin and everything survives a restart.
	fresh := identity.DigestBytes([]byte("post-upgrade"))
	if !s.Append(fresh, testVerdict(9), nil) {
		t.Fatal("append refused after upgrade")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, recs2, err := Open(dir, Options{Origin: me})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(recs2) != n+1 {
		t.Fatalf("after upgrade+append+restart: %d records, want %d", len(recs2), n+1)
	}
	for _, r := range recs2 {
		switch {
		case r.Key == fresh:
			if r.Origin != me {
				t.Fatalf("fresh record origin = %q, want %q", r.Origin, me)
			}
		case r.Origin != "":
			t.Fatalf("migrated record gained origin %q across restart", r.Origin)
		}
	}
	prov, err := s2.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if prov[""] != n || prov[me] != 1 {
		t.Fatalf("Provenance = %v, want %d unattributed and 1 from %q", prov, n, me)
	}
}

// TestOriginSurvivesIngestAndDelta: provenance rides the wire framing and
// the disk round trip — a record ingested with a peer's origin is re-read
// off disk with it intact when served onward in a delta.
func TestOriginSurvivesIngestAndDelta(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const peer = identity.PartyID("bb22")
	in := []Record{{Key: testKey(1), Stamp: 7, Origin: peer, Verdict: testVerdict(1)}}
	applied, _, err := s.Ingest(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 {
		t.Fatalf("applied %d records, want 1", len(applied))
	}
	decoded := deltaOf(t, s, nil)
	if len(decoded) != 1 || decoded[0].Origin != peer {
		t.Fatalf("origin lost across disk+wire: %+v", decoded)
	}
	if !reflect.DeepEqual(decoded[0].Verdict, testVerdict(1)) {
		t.Fatalf("verdict mangled: %+v", decoded[0].Verdict)
	}
}

// TestDecodeRecordsLegacyWire: a delta from a pre-federation peer — no
// version header, no origin column — still decodes, so a mixed fleet
// converges during a rolling upgrade.
func TestDecodeRecordsLegacyWire(t *testing.T) {
	var blob []byte
	blob = appendRecordV1(t, blob, &Record{Key: testKey(3), Stamp: 5, Verdict: testVerdict(3)})
	recs, err := DecodeRecords(blob)
	if err != nil {
		t.Fatalf("legacy wire delta rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].Origin != "" || recs[0].Stamp != 5 {
		t.Fatalf("legacy decode = %+v", recs)
	}
}

// TestDecodeRecordsUnknownVersion: a header claiming a future format is
// refused outright instead of mis-parsed.
func TestDecodeRecordsUnknownVersion(t *testing.T) {
	blob := []byte{'R', 'V', 'L', 'S', 99, 0, 0, 0, 0}
	if _, err := DecodeRecords(blob); err == nil {
		t.Fatal("unknown segment version accepted")
	}
}

// TestOpenCommittedV1Fixture guards the checked-in legacy segment that
// the CI smoke also feeds a live verifier: if the fixture rots — or the
// upgrade path stops reading real v1 bytes — this fails before CI does.
func TestOpenCommittedV1Fixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1", "verdicts.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tailName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("committed v1 fixture failed to open: %v", err)
	}
	defer s.Close()
	if len(recs) != 1 {
		t.Fatalf("fixture replayed %d records, want 1", len(recs))
	}
	r := recs[0]
	if !r.Verdict.Accepted || r.Verdict.Format != "enumeration-nash/v1" || r.Origin != "" {
		t.Fatalf("fixture record mangled: %+v", r)
	}
	if st := s.Stats(); st.Replayed != 1 || st.LiveRecords != 1 {
		t.Fatalf("fixture stats = %+v", st)
	}
}
