package store

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
)

// The shape the service compacts at: MaxLive = 4096 (its cache capacity)
// and a compaction per 1024 fresh verdicts beyond it.
const (
	compactLive  = 4096
	compactFresh = 1024
)

// compactStore opens a store holding compactLive records in its snapshot
// and compactFresh more in the tail, each with a kilobyte request, whose
// Retain hook vouches for about half the keys. CompactAt is out of reach,
// so compaction runs only when the caller asks (runCompact); fill appends
// the records [from, to) and waits until they are on disk.
func compactStore(tb testing.TB) (s *Store, fill func(from, to int)) {
	tb.Helper()
	s, _, err := Open(tb.TempDir(), Options{
		MaxLive: compactLive, CompactAt: 1 << 30, QueueSize: compactLive,
		Retain: func(k identity.Hash) bool { return k[0]&1 == 0 },
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	request := append(testRequest(0), bytes.Repeat([]byte(" "), 1024)...)
	fill = func(from, to int) {
		for i := from; i < to; i++ {
			if !s.Append(testKey(i), testVerdict(i), request) {
				tb.Fatal("append refused")
			}
		}
		if _, err := s.Summary(); err != nil { // drained
			tb.Fatal(err)
		}
	}
	fill(0, compactLive)
	runCompact(tb, s)
	fill(compactLive, compactLive+compactFresh)
	return s, fill
}

// runCompact runs one compaction on the flusher goroutine and checks that
// it left the store healthy at the retention bound.
func runCompact(tb testing.TB, s *Store) {
	tb.Helper()
	var err error
	if doErr := s.do(func() { s.compact(); err = s.flushErr }); doErr != nil || err != nil {
		tb.Fatalf("compaction: %v %v", doErr, err)
	}
	if st := s.Stats(); st.LiveRecords != compactLive {
		tb.Fatalf("after compaction: %+v", st)
	}
}

// BenchmarkCompact is one compaction at the service's shape: 5120 live
// records, 1024 of them retired, the Retain-vouched survivors re-stamped.
// The tail is refilled outside the timer between iterations.
func BenchmarkCompact(b *testing.B) {
	s, fill := compactStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCompact(b, s)
		b.StopTimer()
		next := compactLive + (i+1)*compactFresh
		fill(next, next+compactFresh)
		b.StartTimer()
	}
}

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

// BenchmarkOpen is a warm start at the service's shape: 5 000 live
// records with kilobyte requests and catalog-like verdicts, every tenth
// with a reason that needs escaping (the verdict decode's fallback).
// Only Open is timed; it reports ms/op beside allocs/op.
func BenchmarkOpen(b *testing.B) {
	const n = 5000
	dir := b.TempDir()
	s, _, err := Open(dir, Options{QueueSize: n})
	if err != nil {
		b.Fatal(err)
	}
	request := append(testRequest(0), bytes.Repeat([]byte(" "), 1024)...)
	for i := 0; i < n; i++ {
		v := core.Verdict{Accepted: true, Format: core.FormatP1, Details: map[string]string{
			"bitsOnWire": "4", "lambdaCol": "0", "lambdaRow": "0", "x": "(1/2, 1/2)", "y": fmt.Sprintf("(%d/2, 1/2)", i),
		}}
		switch {
		case i%10 == 0:
			v = core.Verdict{Format: core.FormatLastMover, Reason: fmt.Sprintf(`advice "participate" is not a best reply with %d prior participants`, i)}
		case i%2 == 0:
			v = core.Verdict{Format: core.FormatP1, Reason: fmt.Sprintf("proof certifies [1 %d] but the advice is [0 0]", i),
				Details: map[string]string{"bitsOnWire": "4"}}
		}
		if !s.Append(testKey(i), v, request) {
			b.Fatal("append refused")
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, recs, err := Open(dir, Options{})
		if err != nil || len(recs) != n {
			b.Fatalf("open: %d records, %v", len(recs), err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/op")
}
