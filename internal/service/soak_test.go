package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rationality/internal/core"
)

// soakAnnouncements builds a batch of content-distinct announcements
// namespaced by tag, so concurrent soak streams never share cache keys.
func soakAnnouncements(tag string, n int) []core.Announcement {
	anns := make([]core.Announcement, n)
	for i := range anns {
		anns[i] = announcementFor("inv", fmt.Sprintf(`{"tag":%q,"n":%d}`, tag, i))
	}
	return anns
}

// TestSoakStreamsWithTieredAdmission is the streaming soak: concurrent
// verify-streams saturate the batch admission budget while interactive
// Verify traffic and a Stats poller race them on the same pool. Run
// under -race (CI does) it is the data-race proof for the stream +
// admission hot path; its assertions pin the tiering contract — the
// batch class sheds first, interactive never sheds, and every offered
// item is accounted for exactly once as admitted-or-shed.
func TestSoakStreamsWithTieredAdmission(t *testing.T) {
	const (
		streams     = 8
		streamItems = 2000
		clients     = 4
		perClient   = 125
	)
	proc := &countingProc{format: "counting/v1", accept: true}
	s := newTestService(t, Config{
		Workers:   4,
		CacheSize: -1, // every item is a real verification
		Admission: AdmissionConfig{
			// Interactive is effectively unlimited; batch holds two full
			// streams of burst, so most of the eight must shed.
			InteractiveRate: 1e6, InteractiveBurst: 1 << 20,
			BatchRate: 500, BatchBurst: 2 * streamItems,
		},
	})
	s.register(proc)
	ctx := context.Background()

	var (
		wg             sync.WaitGroup
		admittedItems  atomic.Int64
		shedStreams    atomic.Int64
		deliveredTotal atomic.Int64
	)
	// Batch tier: eight concurrent streams, each all-or-nothing at the
	// admission gate.
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := soakAnnouncements(fmt.Sprintf("stream-%d", g), streamItems)
			tr, err := s.VerifyStream(ctx, batch, func(StreamVerdict) error { return nil })
			switch {
			case errors.Is(err, ErrAdmissionRejected):
				shedStreams.Add(1)
			case err != nil:
				t.Errorf("stream %d: %v", g, err)
			default:
				if tr.Truncated {
					t.Errorf("stream %d truncated: %+v", g, tr)
				}
				admittedItems.Add(int64(tr.Items))
				deliveredTotal.Add(int64(tr.Delivered))
			}
		}(g)
	}
	// Interactive tier: latency-sampled Verify traffic racing the streams.
	latencies := make([][]time.Duration, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		latencies[c] = make([]time.Duration, 0, perClient)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ann := announcementFor("inv", fmt.Sprintf(`{"soak":%d,"i":%d}`, c, i))
				start := time.Now()
				_, err := s.VerifyAnnouncement(ctx, ann)
				if err != nil {
					t.Errorf("interactive %d/%d: %v (interactive must never shed here)", c, i, err)
					return
				}
				latencies[c] = append(latencies[c], time.Since(start))
			}
		}(c)
	}
	// Observer: Stats must stay coherent while both tiers are in flight.
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-pollDone:
				return
			default:
			}
			// Mid-traffic the only exact relation is the one snapshot
			// guarantees — hits+misses never ahead of requests, no slack;
			// the shortfall is requests not yet at their cache lookup, and
			// equality is asserted once the soak has drained, below.
			st := s.Stats()
			if st.CacheHits+st.CacheMisses > st.Requests {
				t.Errorf("mid-soak: hits(%d)+misses(%d) > requests(%d)",
					st.CacheHits, st.CacheMisses, st.Requests)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	waitDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-time.After(2 * time.Minute):
		t.Fatal("soak wedged")
	}
	close(pollDone)
	pollWG.Wait()

	// Tiering contract: batch shed first (and did shed), interactive never.
	st := s.Stats()
	adm := st.Admission
	if adm == nil {
		t.Fatal("Stats.Admission nil")
	}
	if adm.Interactive.Shed != 0 {
		t.Fatalf("interactive shed %d requests; the batch class must absorb all shedding", adm.Interactive.Shed)
	}
	if adm.Batch.Shed == 0 {
		t.Fatal("no stream was shed: the soak never saturated the batch budget")
	}
	if got := shedStreams.Load(); uint64(got) != adm.Batch.Shed {
		t.Fatalf("client saw %d shed streams, controller counted %d", got, adm.Batch.Shed)
	}
	if adm.Batch.Admitted == 0 {
		t.Fatal("every stream shed: the burst should admit at least one")
	}

	// Exact accounting: every offered item is admitted (→ one request, one
	// hit-or-miss) or shed (→ one shed item), nothing else.
	offered := uint64(streams*streamItems + clients*perClient)
	if st.Requests+adm.Batch.ShedItems+adm.Interactive.ShedItems != offered {
		t.Fatalf("requests(%d) + shed items(batch %d, interactive %d) != offered(%d)",
			st.Requests, adm.Batch.ShedItems, adm.Interactive.ShedItems, offered)
	}
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Fatalf("hits(%d)+misses(%d) != requests(%d)", st.CacheHits, st.CacheMisses, st.Requests)
	}
	if got := deliveredTotal.Load(); got != admittedItems.Load() {
		t.Fatalf("admitted streams delivered %d of %d items", got, admittedItems.Load())
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after soak, want 0", st.InFlight)
	}

	// Interactive latency must stay bounded while batch streams hog the
	// pool: a loose p99 roof catches starvation, not scheduler jitter.
	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	if len(all) != clients*perClient {
		t.Fatalf("collected %d interactive samples, want %d", len(all), clients*perClient)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	t.Logf("interactive p50=%v p99=%v max=%v over %d samples (batch: %d admitted, %d shed streams)",
		all[len(all)/2], p99, all[len(all)-1], len(all), adm.Batch.Admitted, adm.Batch.Shed)
	if p99 > 2*time.Second {
		t.Fatalf("interactive p99 = %v: batch streams starved the interactive class", p99)
	}
}
