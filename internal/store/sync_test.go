package store

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rationality/internal/identity"
)

// pull performs one anti-entropy pull: dst offers its manifest, src
// answers with a delta, dst ingests it — over the same Encode/Decode
// framing the wire uses, so the test covers the full round trip.
func pull(t *testing.T, dst, src *Store) []Record {
	t.Helper()
	applied, _, err := dst.Ingest(deltaOf(t, src, manifestOf(t, dst)))
	if err != nil {
		t.Fatal(err)
	}
	return applied
}

// decodeFrames decodes a blob Delta or Records read off the segments and
// checks the claim that lets them skip the codec: the bytes on disk are
// the bytes EncodeRecords would produce for the same records.
func decodeFrames(t *testing.T, framed []byte, n int) []Record {
	t.Helper()
	recs, err := DecodeRecords(framed)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("blob frames %d records, count says %d", len(recs), n)
	}
	again, err := EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, framed) {
		t.Fatal("frames read off disk differ from EncodeRecords of the same records")
	}
	return recs
}

// deltaOf is src's complete-scope delta against a manifest, decoded.
func deltaOf(t *testing.T, src *Store, have map[identity.Hash]RecordInfo) []Record {
	t.Helper()
	framed, n, err := src.Delta(have, nil)
	if err != nil {
		t.Fatal(err)
	}
	return decodeFrames(t, framed, n)
}

func manifestOf(t *testing.T, s *Store) map[identity.Hash]RecordInfo {
	t.Helper()
	m, err := s.Manifest(nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Two stores with disjoint histories ingest each other's deltas and end
// with identical live sets — stamps included, so a third exchange in
// either direction is a no-op.
func TestAntiEntropyConvergesDisjointStores(t *testing.T) {
	a, _ := mustOpen(t, t.TempDir(), Options{})
	defer a.Close()
	b, _ := mustOpen(t, t.TempDir(), Options{})
	defer b.Close()
	for i := 0; i < 5; i++ {
		if !a.Append(testKey(i), testVerdict(i), nil) {
			t.Fatal("append refused")
		}
	}
	for i := 5; i < 8; i++ {
		if !b.Append(testKey(i), testVerdict(i), nil) {
			t.Fatal("append refused")
		}
	}

	if n := pull(t, a, b); len(n) != 3 {
		t.Fatalf("a pulled %d records from b, want 3", len(n))
	}
	if n := pull(t, b, a); len(n) != 5 {
		t.Fatalf("b pulled %d records from a, want 5", len(n))
	}

	ma, mb := manifestOf(t, a), manifestOf(t, b)
	if len(ma) != 8 || !reflect.DeepEqual(ma, mb) {
		t.Fatalf("manifests diverge after one round:\n a=%v\n b=%v", ma, mb)
	}
	if st := a.Stats(); st.Ingested != 3 || st.LiveRecords != 8 {
		t.Fatalf("a stats = %+v, want Ingested 3, LiveRecords 8", st)
	}

	// Converged replicas exchange nothing.
	if n := pull(t, a, b); len(n) != 0 {
		t.Fatalf("second pull moved %d records, want 0", len(n))
	}

	// The merged history must survive a restart on both sides.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2, recs := mustOpen(t, a.dir, Options{})
	defer a2.Close()
	if len(recs) != 8 {
		t.Fatalf("a recovered %d records after merge, want 8", len(recs))
	}
}

// Conflicting stamps on the same key: the newest stamp wins no matter
// which direction the exchange runs, and an equal-or-older offer never
// clobbers the local copy.
func TestAntiEntropyNewestStampWins(t *testing.T) {
	a, _ := mustOpen(t, t.TempDir(), Options{})
	defer a.Close()
	b, _ := mustOpen(t, t.TempDir(), Options{})
	defer b.Close()
	key := testKey(0)
	a.Append(key, testVerdict(1), nil) // a's stamp 1
	b.Append(key, testVerdict(2), nil) // b's stamp 1
	b.Append(key, testVerdict(3), nil) // b's stamp 2: b's live copy

	// a pulls from b: b's stamp-2 record beats a's stamp-1 record.
	if n := pull(t, a, b); len(n) != 1 || n[0].Stamp != 2 {
		t.Fatalf("a applied %+v, want one record at stamp 2", n)
	}
	// b pulls from a: a now has nothing newer — equal stamps, no motion.
	if n := pull(t, b, a); len(n) != 0 {
		t.Fatalf("b applied %+v, want nothing", n)
	}
	for name, s := range map[string]*Store{"a": a, "b": b} {
		m := manifestOf(t, s)
		if len(m) != 1 || m[key].Stamp != 2 {
			t.Fatalf("%s manifest = %v, want stamp 2 for %v", name, m, key)
		}
	}

	// The winning verdict — not just the winning stamp — is what recovery
	// hands back on the side that ingested.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpen(t, a.dir, Options{})
	if len(recs) != 1 || !reflect.DeepEqual(recs[0].Verdict, testVerdict(3)) {
		t.Fatalf("a recovered %+v, want b's stamp-2 verdict", recs)
	}

	// A stale re-offer (the loser's record) must be skipped.
	applied, _, err := b.Ingest([]Record{{Key: key, Stamp: 1, Verdict: testVerdict(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 {
		t.Fatalf("stale ingest applied %+v, want nothing", applied)
	}
}

// Local appends after a merge must stamp above everything ingested, so
// "newest stamp" keeps meaning "most recent write" across the replicas.
func TestIngestAdvancesLocalClock(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if _, _, err := s.Ingest([]Record{{Key: testKey(0), Stamp: 50, Verdict: testVerdict(0)}}); err != nil {
		t.Fatal(err)
	}
	s.Append(testKey(1), testVerdict(1), nil)
	m := manifestOf(t, s)
	if m[testKey(1)].Stamp <= 50 {
		t.Fatalf("local append stamped %d, want > 50 (ingested clock)", m[testKey(1)].Stamp)
	}
}

// Identical content under diverged stamps (the signature of compaction's
// warmth re-ranking) must transfer nothing: without the content check in
// Delta, converged replicas would bounce their whole hot sets between
// each other on every sync round, forever.
func TestDeltaSkipsRestampedIdenticalContent(t *testing.T) {
	a, _ := mustOpen(t, t.TempDir(), Options{})
	defer a.Close()
	b, _ := mustOpen(t, t.TempDir(), Options{})
	defer b.Close()
	key := testKey(0)
	a.Append(key, testVerdict(7), nil)
	// b holds the same verdict at a much newer stamp — as if b compacted
	// and re-ranked it after the replicas had converged.
	if _, _, err := b.Ingest([]Record{{Key: key, Stamp: 9, Verdict: testVerdict(7)}}); err != nil {
		t.Fatal(err)
	}
	delta := deltaOf(t, b, manifestOf(t, a))
	if len(delta) != 0 {
		t.Fatalf("re-stamped identical content produced a delta: %+v", delta)
	}
	// Different content at the newer stamp must still transfer.
	if _, _, err := b.Ingest([]Record{{Key: key, Stamp: 10, Verdict: testVerdict(8)}}); err != nil {
		t.Fatal(err)
	}
	delta = deltaOf(t, b, manifestOf(t, a))
	if len(delta) != 1 || delta[0].Stamp != 10 {
		t.Fatalf("changed content not offered: %+v", delta)
	}
}

// At the MaxLive retention bound, ingest declines brand-new keys (they
// would only be retired by the next compaction — and then re-offered by
// the peer every round) but still applies updates to keys it holds.
func TestIngestRespectsMaxLive(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{MaxLive: 2, SyncEvery: 1})
	defer s.Close()
	s.Append(testKey(0), testVerdict(0), nil)
	s.Append(testKey(1), testVerdict(1), nil)
	applied, _, err := s.Ingest([]Record{
		{Key: testKey(2), Stamp: 100, Verdict: testVerdict(2)}, // new key: at the bound, declined
		{Key: testKey(0), Stamp: 101, Verdict: testVerdict(9)}, // update: always lands
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Key != testKey(0) {
		t.Fatalf("applied = %+v, want only the update to key 0", applied)
	}
	m := manifestOf(t, s)
	if len(m) != 2 {
		t.Fatalf("live set = %d keys, want 2 (bound held)", len(m))
	}
	if _, leaked := m[testKey(2)]; leaked {
		t.Fatal("ingest absorbed a key beyond the retention bound")
	}
}

// A dead disk must fail the pull loudly: Ingest surfaces the flusher's
// fatal write error instead of returning success with nothing applied.
func TestIngestSurfacesWriteError(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{SyncEvery: 1})
	defer s.Close()
	if err := s.tail.Close(); err != nil { // kill the disk under the flusher
		t.Fatal(err)
	}
	applied, _, err := s.Ingest([]Record{{Key: testKey(0), Stamp: 1, Verdict: testVerdict(0)}})
	if err == nil {
		t.Fatal("ingest on a dead store reported success")
	}
	if len(applied) != 0 {
		t.Fatalf("dead store claimed to apply %+v", applied)
	}
}

// A corrupted wire delta is rejected outright — no salvage semantics off
// the disk path — and a truncated one too.
func TestDecodeRecordsRejectsCorruption(t *testing.T) {
	framed, err := EncodeRecords([]Record{{Key: testKey(0), Stamp: 1, Verdict: testVerdict(0)}})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), framed...)
	flipped[len(flipped)-1] ^= 0xff
	if _, err := DecodeRecords(flipped); err == nil {
		t.Fatal("flipped payload byte decoded cleanly")
	}
	if _, err := DecodeRecords(framed[:len(framed)-3]); err == nil {
		t.Fatal("truncated delta decoded cleanly")
	}
	recs, err := DecodeRecords(nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty delta: recs=%v err=%v, want none/nil", recs, err)
	}
}

// TestOriginSurvivesIngestAndDelta: provenance rides the wire framing and
// the disk round trip — a record ingested with a peer's origin is re-read
// off disk with it intact when served onward in a delta.
func TestOriginSurvivesIngestAndDelta(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
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

// TestDecodeRecordsUnknownVersion: a header claiming a future format is
// refused outright instead of mis-parsed.
func TestDecodeRecordsUnknownVersion(t *testing.T) {
	blob := []byte{'R', 'V', 'L', 'S', 99, 0, 0, 0, 0}
	if _, err := DecodeRecords(blob); !errors.Is(err, errVersion) {
		t.Fatalf("unknown segment version: err = %v, want the version error", err)
	}
}

// hugeLengthBlob is a 13-byte blob whose one frame claims a 16 MiB payload.
var hugeLengthBlob = []byte("RVLS\x04\x01\x00\x00\x00\x00\x00\x00\x00")

// The wire decoder's refusals, one row each. A sync blob is whatever a peer
// sent, so no row may cost more memory than the blob itself justifies: a
// length prefix is checked against the bytes that remain before anything
// is allocated on its say-so.
func TestDecodeRecordsRefusals(t *testing.T) {
	good, err := EncodeRecords([]Record{{Key: testKey(0), Stamp: 1, Verdict: testVerdict(0)}})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		blob []byte
		want error
	}{
		"length prefix claims 16 MiB of a 13-byte blob": {hugeLengthBlob, errTorn},
		"headerless (first layout) blob":                {good[segmentHeaderLen:], errVersion},
		"older headed layout":                           {append([]byte("RVLS\x02"), good[segmentHeaderLen:]...), errVersion},
		"torn header":                                   {[]byte("RVL"), errTorn},
		"frame header cut short":                        {good[:segmentHeaderLen+5], errTorn},
		"payload shorter than the smallest record":      {[]byte("RVLS\x04\x00\x00\x00\x04\x00\x00\x00\x00abcd"), errTorn},
		"trailing garbage after a good record":          {append(append([]byte(nil), good...), 0xde, 0xad), errTorn},
	} {
		var recs []Record
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err = DecodeRecords(tc.blob)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) || recs != nil {
			t.Errorf("%s: %d records, err %v; want none and %v", name, len(recs), err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing a %d-byte blob allocated %d bytes", name, len(tc.blob), grew)
		}
	}
}

// The encoder's refusals: a record past a column bound is refused whole,
// and the buffer it was to extend comes back as it was.
func TestAppendRecordRefusals(t *testing.T) {
	for name, rec := range map[string]Record{
		"origin past its bound":    {Origin: identity.PartyID(strings.Repeat("a", maxOrigin+1))},
		"payload past its bound":   {Request: make([]byte, maxPayload)},
		"verdict past the payload": {Request: make([]byte, maxPayload-minPayload-8), Verdict: testVerdict(0)},
	} {
		buf := []byte("RVLS\x04")
		out, _, err := appendRecord(buf, &rec)
		if err == nil || !bytes.Equal(out, buf) {
			t.Errorf("%s: appended %d bytes, err %v; want a refusal and the buffer as it was", name, len(out)-len(buf), err)
		}
	}
}

// The sync API must fail with ErrClosed after Close instead of hanging on
// a flusher that is no longer listening.
func TestSyncAPIAfterClose(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Manifest(nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Manifest after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := s.Delta(nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Delta after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := s.Ingest(nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Ingest after Close: err = %v, want ErrClosed", err)
	}
}
