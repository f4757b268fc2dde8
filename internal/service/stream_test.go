package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rationality/internal/core"
)

// slowProc simulates a procedure with a fixed verification cost, so
// streaming tests can reason about time-to-first-verdict against a known
// per-item duration.
type slowProc struct {
	format  string
	delay   time.Duration
	calls   atomic.Int64
	current atomic.Int64
}

func (p *slowProc) Format() string { return p.format }

func (p *slowProc) Verify(_, _, _ json.RawMessage) (*core.Verdict, error) {
	p.calls.Add(1)
	p.current.Add(1)
	defer p.current.Add(-1)
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return &core.Verdict{Accepted: true, Format: p.format}, nil
}

// annNumbered builds distinct announcements for one format so no two
// items share a cache key.
func annNumbered(format string, n int) core.Announcement {
	return core.Announcement{
		InventorID: "inv",
		Format:     format,
		Game:       json.RawMessage(fmt.Sprintf(`{"n":%d}`, n)),
		Advice:     json.RawMessage(`{}`),
	}
}

func TestVerifyStreamDeliversEveryItem(t *testing.T) {
	proc := &slowProc{format: "slow/v1"}
	s := newTestService(t, Config{Workers: 4})
	s.register(proc)

	const items = 100
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = annNumbered("slow/v1", i)
	}
	seen := make([]bool, items)
	frames := 0
	tr, err := s.VerifyStream(context.Background(), anns, func(sv StreamVerdict) error {
		if sv.Index < 0 || sv.Index >= items {
			t.Errorf("frame index %d out of range", sv.Index)
		} else if seen[sv.Index] {
			t.Errorf("frame index %d delivered twice", sv.Index)
		} else {
			seen[sv.Index] = true
		}
		if !sv.Verdict.Accepted {
			t.Errorf("item %d rejected: %+v", sv.Index, sv.Verdict)
		}
		frames++
		return nil
	})
	if err != nil {
		t.Fatalf("VerifyStream: %v", err)
	}
	if frames != items || tr.Delivered != items {
		t.Fatalf("frames = %d, trailer.Delivered = %d, want %d", frames, tr.Delivered, items)
	}
	if tr.Accepted != items || tr.Rejected != 0 || tr.Truncated {
		t.Fatalf("trailer = %+v, want %d accepted, no truncation", tr, items)
	}
	if tr.FirstVerdict <= 0 || tr.Elapsed < tr.FirstVerdict {
		t.Fatalf("trailer timings incoherent: first=%v elapsed=%v", tr.FirstVerdict, tr.Elapsed)
	}

	st := s.Stats()
	if st.Streams != 1 {
		t.Fatalf("Stats.Streams = %d, want 1", st.Streams)
	}
	if st.StreamTTFV.Count != 1 {
		t.Fatalf("Stats.StreamTTFV.Count = %d, want 1", st.StreamTTFV.Count)
	}
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Fatalf("hits+misses = %d, requests = %d", st.CacheHits+st.CacheMisses, st.Requests)
	}
}

func TestVerifyStreamEmptyBatch(t *testing.T) {
	s := newTestService(t, Config{})
	tr, err := s.VerifyStream(context.Background(), nil, func(StreamVerdict) error {
		t.Fatal("emit called for an empty batch")
		return nil
	})
	if err != nil {
		t.Fatalf("VerifyStream: %v", err)
	}
	if tr.Items != 0 || tr.Delivered != 0 || tr.Truncated {
		t.Fatalf("trailer = %+v, want empty non-truncated", tr)
	}
}

// TestStreamFirstVerdictWithin10xSingleVerify is the streaming
// acceptance bound: a 10k-item stream's time-to-first-verdict must track
// one verification, not the batch — within 10× of a measured single
// Verify against the same service.
func TestStreamFirstVerdictWithin10xSingleVerify(t *testing.T) {
	proc := &slowProc{format: "slow/v1", delay: time.Millisecond}
	s := newTestService(t, Config{Workers: 16, CacheSize: -1})
	s.register(proc)

	// Measure a single Verify generously: warm up, then take the max of
	// several runs so scheduler noise widens the bound, never the margin.
	for i := 0; i < 2; i++ {
		if _, err := s.VerifyAnnouncement(context.Background(), annNumbered("slow/v1", -1-i)); err != nil {
			t.Fatalf("warmup verify: %v", err)
		}
	}
	var single time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := s.VerifyAnnouncement(context.Background(), annNumbered("slow/v1", -10-i)); err != nil {
			t.Fatalf("measured verify: %v", err)
		}
		if d := time.Since(start); d > single {
			single = d
		}
	}

	const items = 10_000
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = annNumbered("slow/v1", i)
	}
	tr, err := s.VerifyStream(context.Background(), anns, func(StreamVerdict) error { return nil })
	if err != nil {
		t.Fatalf("VerifyStream: %v", err)
	}
	if tr.Delivered != items {
		t.Fatalf("delivered %d of %d", tr.Delivered, items)
	}
	bound := 10 * single
	t.Logf("single verify (max of 5) = %v, stream TTFV = %v (bound %v), stream total = %v",
		single, tr.FirstVerdict, bound, tr.Elapsed)
	if tr.FirstVerdict > bound {
		t.Fatalf("time-to-first-verdict %v exceeds 10x a single verify (%v)", tr.FirstVerdict, bound)
	}
}

// TestVerifyStreamServerCloseMidStream covers the drain path: Close
// during an active stream lets in-flight items finish and the trailer
// reports the truncation.
func TestVerifyStreamServerCloseMidStream(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, CacheSize: -1})
	s.register(proc)

	const items = 100
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = announcementFor("inv", fmt.Sprintf(`{"n":%d}`, i))
	}
	type result struct {
		tr  StreamTrailer
		err error
	}
	delivered := make(chan StreamVerdict, items)
	res := make(chan result, 1)
	go func() {
		tr, err := s.VerifyStream(context.Background(), anns, func(sv StreamVerdict) error {
			delivered <- sv
			return nil
		})
		res <- result{tr, err}
	}()

	// Wait until the single worker holds the first item at the gate, then
	// start Close: it must block on the active stream, and the stream's
	// submitter must observe the closing flag and truncate.
	deadline := time.After(5 * time.Second)
	for proc.current.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("first stream item never reached the worker")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for !s.closing() {
		select {
		case <-deadline:
			t.Fatal("Close never flagged the service")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(proc.gate) // release every held and future item

	var r result
	select {
	case r = <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never returned after Close")
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if r.err != nil {
		t.Fatalf("VerifyStream: %v (in-flight work should finish, not error)", r.err)
	}
	if !r.tr.Truncated {
		t.Fatalf("trailer = %+v, want Truncated", r.tr)
	}
	if !strings.Contains(r.tr.Reason, "closed") {
		t.Fatalf("trailer reason %q, want mention of the shutdown", r.tr.Reason)
	}
	if r.tr.Delivered == 0 || r.tr.Delivered >= items {
		t.Fatalf("delivered = %d, want mid-stream truncation (0 < delivered < %d)", r.tr.Delivered, items)
	}
	if got := len(delivered); got != r.tr.Delivered {
		t.Fatalf("emitted %d frames, trailer says %d", got, r.tr.Delivered)
	}
}

// TestVerifyStreamEmitErrorAborts covers the broken-consumer path: an
// emit failure must stop submission, drain cleanly and surface the error,
// leaving the pool healthy.
func TestVerifyStreamEmitErrorAborts(t *testing.T) {
	proc := &slowProc{format: "slow/v1"}
	s := newTestService(t, Config{Workers: 2, CacheSize: -1})
	s.register(proc)

	const items = 500
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = annNumbered("slow/v1", i)
	}
	boom := errors.New("consumer gone")
	frames := 0
	_, err := s.VerifyStream(context.Background(), anns, func(StreamVerdict) error {
		frames++
		if frames >= 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if proc.calls.Load() >= items {
		t.Fatalf("all %d items ran despite the aborted stream", items)
	}
	// The pool must be fully drained and reusable.
	if _, err := s.VerifyAnnouncement(context.Background(), annNumbered("slow/v1", items+1)); err != nil {
		t.Fatalf("verify after aborted stream: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after aborted stream: %v", err)
	}
}

// TestVerifyStreamCancelledContext covers caller-side cancellation at the
// service layer: completed items are emitted, the trailer reports the
// truncation, and counters stay coherent.
func TestVerifyStreamCancelledContext(t *testing.T) {
	proc := &slowProc{format: "slow/v1", delay: 2 * time.Millisecond}
	s := newTestService(t, Config{Workers: 2, CacheSize: -1})
	s.register(proc)

	const items = 500
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = annNumbered("slow/v1", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	frames := 0
	tr, err := s.VerifyStream(ctx, anns, func(StreamVerdict) error {
		frames++
		if frames == 3 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("VerifyStream: %v (cancellation truncates, it does not error)", err)
	}
	if !tr.Truncated || !strings.Contains(tr.Reason, "cancel") {
		t.Fatalf("trailer = %+v, want cancellation truncation", tr)
	}
	if tr.Delivered >= items {
		t.Fatal("cancelled stream delivered the whole batch")
	}
	st := s.Stats()
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Fatalf("hits+misses = %d, requests = %d", st.CacheHits+st.CacheMisses, st.Requests)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after stream returned, want 0", st.InFlight)
	}
}
