package store

import (
	"reflect"
	"testing"

	"rationality/internal/identity"
)

// summary is a store's content fingerprint: the live-key count and the XOR
// of the bucket fingerprints, an order-independent digest over every live
// (key, content sum) pair. Two stores with equal summaries hold the same
// verdict content with overwhelming probability.
type summary struct {
	Count  int
	Digest uint64
}

func summaryOf(t *testing.T, s *Store) summary {
	t.Helper()
	var sum summary
	err := s.do(func() {
		sum.Count = s.index.len()
		for _, f := range s.index.fp {
			sum.Digest ^= f
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// Two stores that hold the same verdict content report equal summaries —
// regardless of the stamps their copies carry or the order history
// arrived in — and any content difference moves the digest.
func TestSummaryTracksContentNotStamps(t *testing.T) {
	a, _ := mustOpen(t, t.TempDir(), Options{})
	b, _ := mustOpen(t, t.TempDir(), Options{})
	if got := summaryOf(t, a); got.Count != 0 || got.Digest != 0 {
		t.Fatalf("empty store summary = %+v, want zero", got)
	}
	// Same records, appended in opposite orders: different stamps per
	// key, same content.
	for i := 0; i < 6; i++ {
		a.Append(testKey(i), testVerdict(i), nil)
	}
	for i := 5; i >= 0; i-- {
		b.Append(testKey(i), testVerdict(i), nil)
	}
	sa, sb := summaryOf(t, a), summaryOf(t, b)
	if sa.Count != 6 || sa != sb {
		t.Fatalf("equal content, unequal summaries: %+v vs %+v", sa, sb)
	}
	if ma, mb := manifestOf(t, a), manifestOf(t, b); reflect.DeepEqual(ma, mb) {
		t.Fatal("test premise broken: opposite append orders produced identical stamps")
	}
	// One diverging verdict changes the digest but not the count.
	b.Append(testKey(3), testVerdict(4), nil)
	if sb2 := summaryOf(t, b); sb2.Count != 6 || sb2.Digest == sa.Digest {
		t.Fatalf("diverged content kept the digest: %+v vs %+v", sb2, sa)
	}
	// A new key changes the count.
	a.Append(testKey(99), testVerdict(99), nil)
	if sa2 := summaryOf(t, a); sa2.Count != 7 {
		t.Fatalf("count = %d after a new key, want 7", sa2.Count)
	}
}

// Summaries agree after anti-entropy convergence: the summary is the
// cheap equality check a gossip round uses in place of full manifests.
func TestSummaryAgreesAfterConvergence(t *testing.T) {
	a, _ := mustOpen(t, t.TempDir(), Options{})
	b, _ := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 4; i++ {
		a.Append(testKey(i), testVerdict(i), nil)
	}
	for i := 4; i < 8; i++ {
		b.Append(testKey(i), testVerdict(i), nil)
	}
	if summaryOf(t, a) == summaryOf(t, b) {
		t.Fatal("disjoint stores must not summarize equal")
	}
	pull(t, a, b)
	pull(t, b, a)
	if sa, sb := summaryOf(t, a), summaryOf(t, b); sa != sb {
		t.Fatalf("converged stores summarize unequal: %+v vs %+v", sa, sb)
	}
}

// Records materializes exactly the requested live copies, skipping
// unknown keys and superseded versions.
func TestRecordsMaterializesLiveCopies(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 5; i++ {
		s.Append(testKey(i), testVerdict(i), []byte(`{"req":true}`))
	}
	// Supersede key 2: the fetch must return the newest copy.
	s.Append(testKey(2), testVerdict(7), nil)
	framed, n, err := s.Records([]identity.Hash{testKey(1), testKey(2), testKey(42), testKey(1)})
	if err != nil {
		t.Fatal(err)
	}
	got := decodeFrames(t, framed, n)
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2 (unknown key skipped, repeated key once)", len(got))
	}
	byKey := map[identity.Hash]Record{}
	for _, r := range got {
		byKey[r.Key] = r
	}
	if r, ok := byKey[testKey(1)]; !ok || r.Verdict.Reason != testVerdict(1).Reason {
		t.Fatalf("key 1: got %+v", r)
	}
	if r, ok := byKey[testKey(2)]; !ok || r.Verdict.Reason != testVerdict(7).Reason {
		t.Fatalf("key 2 not the superseding copy: %+v", r)
	}
	if r := byKey[testKey(1)]; string(r.Request) != `{"req":true}` {
		t.Fatalf("request column lost: %q", r.Request)
	}
	// Empty and all-unknown requests cost nothing and return nothing.
	if framed, n, err := s.Records(nil); err != nil || n != 0 || framed != nil {
		t.Fatalf("nil request: %d records, %d bytes, %v", n, len(framed), err)
	}
}

// Fingerprints and Records fail with ErrClosed after Close, like the rest
// of the sync surface.
func TestSummaryAndRecordsAfterClose(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	s.Append(testKey(1), testVerdict(1), nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fingerprints(); err != ErrClosed {
		t.Fatalf("Fingerprints after close: %v", err)
	}
	if _, _, err := s.Records([]identity.Hash{testKey(1)}); err != ErrClosed {
		t.Fatalf("Records after close: %v", err)
	}
}
