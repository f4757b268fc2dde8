package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// BenchmarkPullExchange is one whole anti-entropy exchange between two
// keyed in-process services — fingerprints, scoped offer, signed delta,
// federation gate, ingest, and the wire codec both ways (the peer is the
// production client over an in-memory pipe) — starting from 4096 live
// records on both sides:
// with 64 new records at the responder per exchange, with none, and as the
// backstop round that trades complete manifests whatever the fingerprints
// say (in-sync, so the manifest is all it moves).
func BenchmarkPullExchange(b *testing.B) {
	const live, news = 4096, 64
	key := testKeyPair(b)
	// The cache bounds the log's live set: leave room for every record.
	src := newTestService(b, Config{ID: "src", PersistPath: b.TempDir(), CacheSize: 1 << 16, Key: key})
	dst := newTestService(b, Config{ID: "dst", PersistPath: b.TempDir(), CacheSize: 1 << 16, PeerKeys: []identity.PartyID{key.ID()}})
	for _, s := range []*Service{src, dst} {
		s.register(&countingProc{format: "counting/v1", accept: true})
	}
	ctx := context.Background()
	peer := transport.DialInProc(src)
	verified := 0
	grow := func(n int) {
		b.Helper()
		for i := 0; i < n; i++ {
			verified++
			if _, err := src.VerifyAnnouncement(ctx, announcementFor("inv", fmt.Sprintf(`{"bench":%d}`, verified))); err != nil {
				b.Fatal(err)
			}
			// Appends are asynchronous and dropped when the queue is full:
			// stay well inside it.
			for src.Stats().Persistence.Persisted+512 < uint64(verified) {
				runtime.Gosched()
			}
		}
		// An exchange reads what reached the log.
		for src.Stats().Persistence.Persisted < uint64(verified) {
			runtime.Gosched()
		}
	}
	exchange := func(full bool, want int) {
		b.Helper()
		res, err := dst.pullExchange(ctx, peer, gossip.Request{Full: full})
		if err != nil || res.Received != want || res.InSync != (want == 0 && !full) {
			b.Fatalf("exchange: %+v, %v; want %d records", res, err, want)
		}
	}
	grow(live)
	exchange(false, live)

	b.Run("64-of-4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			grow(news)
			b.StartTimer()
			exchange(false, news)
		}
	})
	b.Run("in-sync", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exchange(false, 0)
		}
	})
	b.Run("in-sync/complete-manifest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exchange(true, 0)
		}
	})
}

// BenchmarkWarmStart is a restart at the service layer: New over a
// 5 000-record log of BenchmarkOpen's shape (kilobyte requests,
// catalog-like verdicts, every tenth with a reason that needs escaping)
// into a cache with room for all of it, then Close. It reports ms/op
// beside allocs/op.
func BenchmarkWarmStart(b *testing.B) {
	const n = 5000
	dir := b.TempDir()
	st, _, err := store.Open(dir, store.Options{QueueSize: n})
	if err != nil {
		b.Fatal(err)
	}
	request := append([]byte(`{"format":"p1/v1","game":{"n":0},"advice":[0,1],"proof":"p"}`), bytes.Repeat([]byte(" "), 1024)...)
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
		if !st.Append(identity.DigestBytes([]byte(strconv.Itoa(i))), v, request) {
			b.Fatal("append refused")
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	cfg := Config{ID: "warm", PersistPath: dir, CacheSize: 2 * n}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		if s.replayed != n {
			b.Fatalf("replayed %d of %d records", s.replayed, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/op")
}
