package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rationality/internal/core"
)

// TestStressShardedHotPath hammers the sharded cache, the lock-free
// metrics and the stream path from many goroutines at once —
// Verify, VerifyStream, Stats and a mid-flight Close — over a cache small
// enough to evict constantly, then audits counter coherence. Run under
// -race (CI does) this doubles as the data-race proof for the lock-free
// hot path.
func TestStressShardedHotPath(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true}
	s, err := New(Config{
		ID:          "stress",
		Workers:     4,
		CacheSize:   8, // tiny: constant eviction pressure
		CacheShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.register(proc)

	const (
		hammerers  = 8
		iterations = 150
		distinct   = 32 // 4x the cache: misses and evictions guaranteed
	)
	ctx := context.Background()
	closeAt := make(chan struct{})
	var closeOnce sync.Once
	var wg sync.WaitGroup
	for g := 0; g < hammerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				n := (g*iterations + i) % distinct
				switch i % 4 {
				case 0, 1:
					ann := announcementFor("inv", fmt.Sprintf(`{"n":%d}`, n))
					if _, err := s.VerifyAnnouncement(ctx, ann); err != nil && !errors.Is(err, ErrServiceClosed) {
						t.Errorf("verify: %v", err)
					}
				case 2:
					batch := []core.Announcement{
						announcementFor("inv", fmt.Sprintf(`{"n":%d}`, n)),
						announcementFor("inv", fmt.Sprintf(`{"n":%d}`, (n+1)%distinct)),
						announcementFor("inv", fmt.Sprintf(`{"n":%d}`, (n+2)%distinct)),
					}
					if _, _, err := streamAll(ctx, s, batch); err != nil && !errors.Is(err, ErrServiceClosed) {
						t.Errorf("stream: %v", err)
					}
				case 3:
					st := s.Stats()
					if st.InFlight < 0 {
						t.Errorf("negative InFlight gauge: %d", st.InFlight)
					}
				}
				if g == 0 && i == iterations/2 {
					close(closeAt) // signal the closer mid-hammer
				}
			}
		}(g)
	}
	// One goroutine closes the service while traffic is still flowing: the
	// drain must finish cleanly and late requests must be refused, not
	// miscounted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-closeAt
		closeOnce.Do(func() {
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
	}()
	wg.Wait()
	closeOnce.Do(func() { _ = s.Close() })

	st := s.Stats()
	if st.Requests == 0 || st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("stress produced no mixed traffic: %+v", st)
	}
	// Coherence: every admitted request is exactly one cache hit or miss,
	// and every delivered-or-failed outcome accounts for one request.
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Fatalf("hits(%d) + misses(%d) != requests(%d)",
			st.CacheHits, st.CacheMisses, st.Requests)
	}
	if st.Accepted+st.Rejected+st.Failures < st.Requests {
		t.Fatalf("accepted(%d) + rejected(%d) + failures(%d) < requests(%d): verdicts went missing",
			st.Accepted, st.Rejected, st.Failures, st.Requests)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after full drain, want 0", st.InFlight)
	}
	if st.CacheEntries > 8 {
		t.Fatalf("cache grew past its bound: %d entries", st.CacheEntries)
	}
	if st.Latency.Count != st.Requests {
		t.Fatalf("latency count %d != requests %d", st.Latency.Count, st.Requests)
	}
	if st.Latency.Count > 0 && (st.Latency.P50 <= 0 || st.Latency.P95 < st.Latency.P50 || st.Latency.P99 < st.Latency.P95) {
		t.Fatalf("percentile estimates not monotone: %+v", st.Latency)
	}
	// Post-close requests are refusals: failures only, never requests.
	before := s.Stats()
	if _, err := s.VerifyAnnouncement(ctx, announcementFor("inv", `{"n":0}`)); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("post-close verify: %v", err)
	}
	after := s.Stats()
	if after.Requests != before.Requests || after.Failures != before.Failures+1 {
		t.Fatalf("refusal accounting: requests %d->%d failures %d->%d",
			before.Requests, after.Requests, before.Failures, after.Failures)
	}
}

// TestStressSingleflightUnderChurn floods one hot key from many
// goroutines with caching disabled, so every round is a singleflight
// race; the procedure must run far fewer times than requests arrive, and
// the dedup counter must account for every shared verdict.
func TestStressSingleflightUnderChurn(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true}
	s := newTestService(t, Config{Workers: 2, CacheSize: -1})
	s.register(proc)
	ann := announcementFor("inv", `{"hot":1}`)
	ctx := context.Background()

	const clients = 8
	const rounds = 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v, err := s.VerifyAnnouncement(ctx, ann)
				if err != nil {
					t.Errorf("verify: %v", err)
					return
				}
				if !v.Accepted {
					t.Error("hot announcement rejected")
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	executed := uint64(proc.calls.Load())
	if st.Requests != clients*rounds {
		t.Fatalf("requests = %d, want %d", st.Requests, clients*rounds)
	}
	if executed+st.Deduplicated != st.CacheMisses {
		t.Fatalf("executions(%d) + deduplicated(%d) != misses(%d)",
			executed, st.Deduplicated, st.CacheMisses)
	}
}

// TestLatencyHistogramPercentiles feeds the histogram synthetic latencies
// and checks the log2-bucket percentile estimates land in the right
// buckets (upper bounds, clamped by the observed max).
func TestLatencyHistogramPercentiles(t *testing.T) {
	var m metrics
	now := time.Now()
	// 90 fast requests (~1µs) and 10 slow ones (~1ms): p50 must sit in the
	// microsecond range, p99 in the millisecond range.
	for i := 0; i < 90; i++ {
		m.lat.count.Add(1)
		m.lat.total.Add(1000)
		m.lat.hist[latencyBucket(1000)].Add(1)
	}
	for i := 0; i < 10; i++ {
		m.lat.count.Add(1)
		m.lat.total.Add(1_000_000)
		m.lat.hist[latencyBucket(1_000_000)].Add(1)
	}
	m.lat.min.Store(1000)
	m.lat.max.Store(1_000_000)
	_ = now

	sum := m.lat.summary()
	if sum.Count != 100 {
		t.Fatalf("count = %d", sum.Count)
	}
	if sum.P50 < 1000 || sum.P50 > 2048 {
		t.Fatalf("p50 = %v, want within the ~1µs bucket", sum.P50)
	}
	if sum.P95 < 500_000 || sum.P95 > 2_000_000 {
		t.Fatalf("p95 = %v, want within the ~1ms bucket", sum.P95)
	}
	if sum.P99 < 500_000 || sum.P99 > 2_000_000 {
		t.Fatalf("p99 = %v, want within the ~1ms bucket", sum.P99)
	}
	if sum.Mean != time.Duration((90*1000+10*1_000_000)/100) {
		t.Fatalf("mean = %v", sum.Mean)
	}
}

// TestVerdictDetailsImmutableUnderConcurrentHits mutates returned verdicts
// while other goroutines read the same hot cache entry: every reader must
// see the pristine details (the copy-outside-the-lock must be a real
// copy). Run under -race this also proves the lock-free Get path is safe.
func TestVerdictDetailsImmutableUnderConcurrentHits(t *testing.T) {
	s := newTestService(t, Config{})
	ann := pdAnnouncement(t)
	ctx := context.Background()
	if _, err := s.VerifyAnnouncement(ctx, ann); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v, err := s.VerifyAnnouncement(ctx, ann)
				if err != nil {
					t.Errorf("verify: %v", err)
					return
				}
				if !v.Accepted {
					t.Error("hot verdict flipped")
					return
				}
				if tainted, ok := v.Details["tainted"]; ok {
					t.Errorf("cache leaked a mutated verdict: %q", tainted)
					return
				}
				// Scribble on our private copy.
				v.Details["tainted"] = fmt.Sprintf("g%d-i%d", g, i)
				v.Accepted = false
			}
		}(g)
	}
	wg.Wait()
}

// jsonNumberedAnnouncement guards against accidental test helper drift:
// announcementFor must produce content-distinct announcements for
// distinct payloads (the stress tests rely on it for miss pressure).
func TestAnnouncementForDistinctness(t *testing.T) {
	a := announcementFor("inv", `{"n":1}`)
	b := announcementFor("inv", `{"n":2}`)
	if string(a.Game) == string(b.Game) {
		t.Fatal("helper produced identical payloads")
	}
	var decoded map[string]int
	if err := json.Unmarshal(a.Game, &decoded); err != nil {
		t.Fatalf("helper payload is not JSON: %v", err)
	}
}
