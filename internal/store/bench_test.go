package store

import (
	"bytes"
	"testing"

	"rationality/internal/identity"
)

// benchStore opens a store of n live records with kilobyte request bodies,
// the first half compacted into the snapshot and the rest in the tail, and
// returns it with its complete manifest.
func benchStore(b *testing.B, n int) (*Store, map[identity.Hash]RecordInfo) {
	b.Helper()
	s, _, err := Open(b.TempDir(), Options{QueueSize: n, CompactAt: n / 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	request := append(testRequest(0), bytes.Repeat([]byte(" "), 1024)...)
	write := func(from, to int) {
		for i := from; i < to; i++ {
			if !s.Append(testKey(i), testVerdict(i), request) {
				b.Fatal("append refused")
			}
		}
		if _, err := s.Summary(); err != nil { // drained
			b.Fatal(err)
		}
	}
	write(0, n/2)
	write(0, n/2) // as much garbage as CompactAt: one compaction
	write(n/2, n)
	if st := s.Stats(); st.Compactions != 1 || st.LiveRecords != uint64(n) {
		b.Fatalf("bench store: %+v", st)
	}
	man, err := s.Manifest(nil)
	if err != nil {
		b.Fatal(err)
	}
	return s, man
}

// BenchmarkDelta is the responder's store half of one anti-entropy
// exchange at 4096 live records: a peer missing 64 of them (by complete
// manifest, and by the scoped manifest of just their buckets) and a peer
// missing none.
func BenchmarkDelta(b *testing.B) {
	const live, missing = 4096, 64
	s, full := benchStore(b, live)
	behind := make(map[identity.Hash]RecordInfo, live)
	scope := make(Scope, fpBuckets/8)
	for k, v := range full {
		behind[k] = v
	}
	for i := 0; i < missing; i++ {
		k := testKey(i * (live / missing))
		delete(behind, k)
		bucket := bucketOf(k, fpBuckets)
		scope[bucket>>3] |= 1 << (bucket & 7)
	}
	scoped := make(map[identity.Hash]RecordInfo)
	for k, v := range behind {
		if scope.Contains(k) {
			scoped[k] = v
		}
	}
	for _, bc := range []struct {
		name  string
		have  map[identity.Hash]RecordInfo
		scope Scope
		want  int
	}{
		{"64-of-4096/complete-manifest", behind, nil, missing},
		{"64-of-4096/scoped-manifest", scoped, scope, missing},
		{"in-sync/complete-manifest", full, nil, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				framed, n, err := s.Delta(bc.have, bc.scope)
				if err != nil || n != bc.want {
					b.Fatalf("delta of %d records (%d bytes), %v; want %d", n, len(framed), err, bc.want)
				}
			}
		})
	}
}
