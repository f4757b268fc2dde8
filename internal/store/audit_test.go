package store

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"rationality/internal/identity"
)

// testRequest is a canonical request body for audit-column tests.
func testRequest(i int) []byte {
	req, _ := json.Marshal(map[string]any{"format": "test/v1", "game": json.RawMessage(strconv.Itoa(i))})
	return req
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
