package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/proof"
	"rationality/internal/reputation"
)

// countingProc is a test procedure that counts executions, optionally
// blocking on a gate so tests can hold verifications in flight.
type countingProc struct {
	format  string
	accept  bool
	calls   atomic.Int64
	current atomic.Int64
	peak    atomic.Int64
	gate    chan struct{}
}

func (p *countingProc) Format() string { return p.format }

func (p *countingProc) Verify(_, _, _ json.RawMessage) (*core.Verdict, error) {
	p.calls.Add(1)
	n := p.current.Add(1)
	defer p.current.Add(-1)
	for {
		peak := p.peak.Load()
		if n <= peak || p.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	if p.gate != nil {
		<-p.gate
	}
	return &core.Verdict{Accepted: p.accept, Format: p.format}, nil
}

func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.ID == "" {
		cfg.ID = "svc-under-test"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func pdAnnouncement(t testing.TB) core.Announcement {
	t.Helper()
	ann, err := core.AnnounceEnumeration("honest-inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

func announcementFor(id string, payload string) core.Announcement {
	return core.Announcement{
		InventorID: id,
		Format:     "counting/v1",
		Game:       json.RawMessage(payload),
		Advice:     json.RawMessage(`{}`),
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty ID")
	}
}

func TestVerifyRealProcedure(t *testing.T) {
	s := newTestService(t, Config{})
	ann := pdAnnouncement(t)
	v, err := s.VerifyAnnouncement(context.Background(), ann)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted {
		t.Fatalf("honest announcement rejected: %s", v.Reason)
	}
	forged, err := core.AnnounceEnumerationForged("shady", game.PrisonersDilemma(), game.Profile{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	v, err = s.VerifyAnnouncement(context.Background(), forged)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted {
		t.Fatal("forged announcement accepted")
	}
}

func TestVerifyUnknownFormatFails(t *testing.T) {
	s := newTestService(t, Config{})
	_, err := s.Verify(context.Background(), core.VerifyRequest{Format: "no-such/v1"})
	if err == nil {
		t.Fatal("unknown format produced a verdict")
	}
	if got := s.Stats().Failures; got != 1 {
		t.Fatalf("Failures = %d, want 1", got)
	}
}

func TestCacheRepeatVerifiedOnce(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true}
	s := newTestService(t, Config{})
	s.Register(proc)
	ann := announcementFor("inv", `{"n":1}`)
	for i := 0; i < 5; i++ {
		v, err := s.VerifyAnnouncement(context.Background(), ann)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Accepted {
			t.Fatal("rejected")
		}
	}
	if got := proc.calls.Load(); got != 1 {
		t.Fatalf("procedure ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.Requests != 5 || st.CacheHits != 4 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 5 requests / 4 hits / 1 miss", st)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("CacheEntries = %d, want 1", st.CacheEntries)
	}
}

func TestCacheKeyIsContentAddressed(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true}
	s := newTestService(t, Config{})
	s.Register(proc)
	// Distinct payloads must not collide, and the inventor ID must not be
	// part of the key: the same content from two inventors shares an entry.
	for _, ann := range []core.Announcement{
		announcementFor("inv-a", `{"n":1}`),
		announcementFor("inv-b", `{"n":1}`),
		announcementFor("inv-a", `{"n":2}`),
	} {
		if _, err := s.VerifyAnnouncement(context.Background(), ann); err != nil {
			t.Fatal(err)
		}
	}
	if got := proc.calls.Load(); got != 2 {
		t.Fatalf("procedure ran %d times, want 2 (two distinct contents)", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true}
	s := newTestService(t, Config{CacheSize: -1})
	s.Register(proc)
	ann := announcementFor("inv", `{"n":1}`)
	for i := 0; i < 3; i++ {
		if _, err := s.VerifyAnnouncement(context.Background(), ann); err != nil {
			t.Fatal(err)
		}
	}
	if got := proc.calls.Load(); got != 3 {
		t.Fatalf("procedure ran %d times, want 3 with caching disabled", got)
	}
}

func TestCacheEviction(t *testing.T) {
	// One shard so the LRU order is global and the eviction deterministic.
	c := newVerdictCache(2, 1)
	keyA := identity.DigestBytes([]byte("a"))
	keyB := identity.DigestBytes([]byte("b"))
	keyC := identity.DigestBytes([]byte("c"))
	c.Put(keyA, core.Verdict{Format: "a"})
	c.Put(keyB, core.Verdict{Format: "b"})
	if _, ok := c.Get(keyA); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put(keyC, core.Verdict{Format: "c"})
	if _, ok := c.Get(keyB); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get(keyA); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheShardingSpreadsAndBounds(t *testing.T) {
	const capacity, shards = 64, 4
	c := newVerdictCache(capacity, shards)
	if got := len(c.shards); got != shards {
		t.Fatalf("shard count = %d, want %d", got, shards)
	}
	// Insert far more distinct keys than capacity: every shard must stay
	// within its per-shard bound and the total within the cache bound.
	for i := 0; i < 10*capacity; i++ {
		c.Put(identity.DigestBytes([]byte(fmt.Sprintf("key-%d", i))), core.Verdict{Accepted: true})
	}
	lens := c.ShardLens()
	if len(lens) != shards {
		t.Fatalf("ShardLens has %d entries, want %d", len(lens), shards)
	}
	total := 0
	for i, n := range lens {
		if n > capacity/shards {
			t.Fatalf("shard %d holds %d entries, per-shard bound is %d", i, n, capacity/shards)
		}
		if n == 0 {
			t.Fatalf("shard %d empty after uniform fill: keys are not spreading", i)
		}
		total += n
	}
	if total != c.Len() || total > capacity {
		t.Fatalf("total entries %d (Len %d), capacity %d", total, c.Len(), capacity)
	}
}

func TestCacheShardCountRounding(t *testing.T) {
	cases := []struct {
		capacity, shards, want int
	}{
		{1024, 0, 1},   // <1 clamps to one shard
		{1024, 1, 1},   // already a power of two
		{1024, 3, 4},   // rounds up
		{1024, 16, 16}, // stays
		{2, 16, 2},     // capped so each shard holds >= 1 entry
		{-1, 16, 0},    // disabled cache has no shards
	}
	for _, tc := range cases {
		c := newVerdictCache(tc.capacity, tc.shards)
		if got := len(c.shards); got != tc.want {
			t.Errorf("newVerdictCache(%d, %d): %d shards, want %d",
				tc.capacity, tc.shards, got, tc.want)
		}
	}
}

func TestCachedVerdictIsACopy(t *testing.T) {
	s := newTestService(t, Config{})
	ann := pdAnnouncement(t)
	v1, err := s.VerifyAnnouncement(context.Background(), ann)
	if err != nil {
		t.Fatal(err)
	}
	v1.Details["steps"] = "tampered"
	v1.Accepted = false
	v2, err := s.VerifyAnnouncement(context.Background(), ann)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Accepted || v2.Details["steps"] == "tampered" {
		t.Fatal("mutating a returned verdict leaked into the cache")
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 4})
	s.Register(proc)
	ann := announcementFor("inv", `{"n":1}`)

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.VerifyAnnouncement(context.Background(), ann)
			if err != nil {
				errs <- err
				return
			}
			if !v.Accepted {
				errs <- fmt.Errorf("rejected: %s", v.Reason)
			}
		}()
	}
	// Wait until the leader is executing, then let every duplicate queue up
	// behind it before releasing the gate.
	deadline := time.After(5 * time.Second)
	for proc.current.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("leader never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(proc.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := proc.calls.Load(); got != 1 {
		t.Fatalf("procedure ran %d times under identical concurrent load, want 1", got)
	}
	st := s.Stats()
	if st.Deduplicated+st.CacheHits != clients-1 {
		t.Fatalf("dedup+hits = %d, want %d; stats %+v", st.Deduplicated+st.CacheHits, clients-1, st)
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: workers, CacheSize: -1})
	s.Register(proc)

	const requests = 12
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct payloads so neither cache nor singleflight collapses them.
			ann := announcementFor("inv", fmt.Sprintf(`{"n":%d}`, i))
			if _, err := s.VerifyAnnouncement(context.Background(), ann); err != nil {
				t.Error(err)
			}
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for proc.current.Load() < workers {
		select {
		case <-deadline:
			t.Fatalf("pool never saturated: current=%d", proc.current.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(proc.gate)
	wg.Wait()
	if got := proc.peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent executions, pool bound is %d", got, workers)
	}
	if got := proc.calls.Load(); got != requests {
		t.Fatalf("procedure ran %d times, want %d", got, requests)
	}
}

func TestVerifyBatchOrderAndAggregation(t *testing.T) {
	s := newTestService(t, Config{})
	honest := pdAnnouncement(t)
	forged, err := core.AnnounceEnumerationForged("shady", game.PrisonersDilemma(), game.Profile{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	unknown := core.Announcement{InventorID: "x", Format: "no-such/v1",
		Game: json.RawMessage(`{}`), Advice: json.RawMessage(`{}`)}

	verdicts, err := s.VerifyBatch(context.Background(), []core.Announcement{honest, forged, unknown, honest})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 4 {
		t.Fatalf("got %d verdicts, want 4", len(verdicts))
	}
	if !verdicts[0].Accepted || !verdicts[3].Accepted {
		t.Fatalf("honest items rejected: %+v", verdicts)
	}
	if verdicts[1].Accepted {
		t.Fatal("forged item accepted")
	}
	if verdicts[2].Accepted || verdicts[2].Reason == "" {
		t.Fatalf("unknown-format item should be a reasoned rejection, got %+v", verdicts[2])
	}
	if got := s.Stats().Batches; got != 1 {
		t.Fatalf("Batches = %d, want 1", got)
	}
}

func TestReputationRecording(t *testing.T) {
	rep := reputation.NewRegistry()
	s := newTestService(t, Config{Reputation: rep})
	honest := pdAnnouncement(t)
	forged, err := core.AnnounceEnumerationForged("shady", game.PrisonersDilemma(), game.Profile{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.VerifyBatch(context.Background(), []core.Announcement{honest, forged}); err != nil {
		t.Fatal(err)
	}
	if got := rep.Score(honest.InventorID); got.Agreements != 1 || got.Disagreements != 0 {
		t.Fatalf("honest inventor score = %+v, want one agreement", got)
	}
	if got := rep.Score("shady"); got.Disagreements != 1 {
		t.Fatalf("shady inventor score = %+v, want one disagreement", got)
	}
	// Cached repeats must not re-record: flooding a verifier with one
	// announcement cannot move reputations or grow the audit log.
	events := len(rep.Events())
	for i := 0; i < 5; i++ {
		if _, err := s.VerifyAnnouncement(context.Background(), forged); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.Score("shady"); got.Disagreements != 1 {
		t.Fatalf("cached repeats re-recorded: score = %+v", got)
	}
	// Batched repeats are hits too: one agreement per fresh verdict.
	if _, err := s.VerifyBatch(context.Background(), []core.Announcement{honest, honest, honest}); err != nil {
		t.Fatal(err)
	}
	if got := rep.Score(honest.InventorID); got.Agreements != 1 {
		t.Fatalf("batched repeats re-recorded: honest score = %+v", got)
	}
	if st := s.Stats(); st.Requests != 10 || st.CacheHits != 8 {
		t.Fatalf("stats = %+v, want 10 requests with 8 cache hits", st)
	}
	if got := len(rep.Events()); got != events {
		t.Fatalf("cached repeats grew the audit log: %d -> %d", events, got)
	}
	var misbehaved bool
	for _, e := range rep.Events() {
		if e.Party == "shady" && e.Kind == reputation.Misbehaved && e.Details != "" {
			misbehaved = true
		}
	}
	if !misbehaved {
		t.Fatal("no misbehaviour event with evidence for the forger")
	}
}

func TestGracefulDrain(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s, err := New(Config{ID: "drain", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Register(proc)

	result := make(chan error, 1)
	go func() {
		_, err := s.VerifyAnnouncement(context.Background(), announcementFor("inv", `{"n":1}`))
		result <- err
	}()
	deadline := time.After(5 * time.Second)
	for proc.current.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("request never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	closed := make(chan struct{})
	go func() {
		_ = s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a request was in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(proc.gate)
	if err := <-result; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never finished after drain")
	}

	if _, err := s.VerifyAnnouncement(context.Background(), announcementFor("inv", `{"n":2}`)); err != ErrServiceClosed {
		t.Fatalf("post-close request: err = %v, want ErrServiceClosed", err)
	}
	if _, err := s.VerifyBatch(context.Background(), nil); err != ErrServiceClosed {
		t.Fatalf("post-close batch: err = %v, want ErrServiceClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestVerifyBatchCancelledKeepsCompletedVerdicts(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, CacheSize: -1})
	s.Register(proc)
	defer close(proc.gate)

	// Saturate the single worker so batch items must wait for a slot.
	occupied := make(chan struct{})
	go func() {
		close(occupied)
		_, _ = s.VerifyAnnouncement(context.Background(), announcementFor("inv", `{"n":0}`))
	}()
	<-occupied
	deadline := time.After(5 * time.Second)
	for proc.current.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("occupier never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled context interrupts the batch before any item runs:
	// the error is a PartialBatchError reporting zero completed verdicts,
	// still errors.Is-matching context.Canceled — cancellation must not
	// surface as per-item rejection verdicts that look like failed proofs.
	verdicts, err := s.VerifyBatch(ctx, []core.Announcement{
		announcementFor("inv", `{"n":1}`),
		announcementFor("inv", `{"n":2}`),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via errors.Is", err)
	}
	var partial *PartialBatchError
	if !errors.As(err, &partial) {
		t.Fatalf("err = %T %v, want *PartialBatchError", err, err)
	}
	if partial.Done != 0 || partial.Total != 2 {
		t.Fatalf("partial = %d/%d, want 0/2", partial.Done, partial.Total)
	}
	if len(verdicts) != 0 {
		t.Fatalf("verdicts = %d, want 0 (nothing ran before the cancel)", len(verdicts))
	}
}

func TestVerifyBatchCancelledMidFlightReturnsPartialVerdicts(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, CacheSize: -1})
	s.Register(proc)

	ctx, cancel := context.WithCancel(context.Background())
	const items = 4
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = announcementFor("inv", fmt.Sprintf(`{"n":%d}`, i))
	}
	// Let exactly one item through, then cancel while the single worker
	// holds the next item at the gate and the submit loop is blocked
	// dispatching the one after: completed work must survive the cancel.
	done := make(chan struct{})
	var verdicts []core.Verdict
	var err error
	go func() {
		defer close(done)
		verdicts, err = s.VerifyBatch(ctx, anns)
	}()
	proc.gate <- struct{}{} // releases the first item once it reaches the gate
	deadline := time.After(5 * time.Second)
	for proc.calls.Load() < 2 {
		select {
		case <-deadline:
			t.Fatal("second batch item never reached the worker")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	close(proc.gate) // release the in-flight item; the rest never ran
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch never returned")
	}

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via errors.Is", err)
	}
	var partial *PartialBatchError
	if !errors.As(err, &partial) {
		t.Fatalf("err = %T %v, want *PartialBatchError", err, err)
	}
	if partial.Total != items {
		t.Fatalf("partial.Total = %d, want %d", partial.Total, items)
	}
	if partial.Done == 0 || partial.Done >= items {
		t.Fatalf("partial.Done = %d, want mid-batch truncation (0 < done < %d)", partial.Done, items)
	}
	if len(verdicts) != partial.Done {
		t.Fatalf("len(verdicts) = %d, want partial.Done = %d", len(verdicts), partial.Done)
	}
	for i, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("verdict %d not accepted: %+v", i, v)
		}
	}
}

// TestVerifyBatchServiceCloseMidBatch is the batch twin of
// TestVerifyStreamServerCloseMidStream: Close during a large batch over a
// slow procedure must stop submission, let in-flight items finish, and
// report the shutdown as a PartialBatchError — not run every remaining
// item while Close waits.
func TestVerifyBatchServiceCloseMidBatch(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, CacheSize: -1})
	s.Register(proc)

	const items = 100
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = announcementFor("inv", fmt.Sprintf(`{"n":%d}`, i))
	}
	done := make(chan struct{})
	var verdicts []core.Verdict
	var err error
	go func() {
		defer close(done)
		verdicts, err = s.VerifyBatch(context.Background(), anns)
	}()

	// Wait until the single worker holds the first item at the gate, then
	// start Close: it must block on the active batch, and the batch's
	// submitter must observe the closing flag and truncate.
	deadline := time.After(5 * time.Second)
	for proc.current.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("first batch item never reached the worker")
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

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never returned after Close")
	}
	select {
	case cerr := <-closed:
		if cerr != nil {
			t.Fatalf("Close: %v", cerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	var partial *PartialBatchError
	if !errors.As(err, &partial) {
		t.Fatalf("err = %T %v, want *PartialBatchError (the batch ran %d items through a closing service)", err, err, proc.calls.Load())
	}
	if partial.Cause != ErrServiceClosed {
		t.Fatalf("partial.Cause = %v, want ErrServiceClosed", partial.Cause)
	}
	if partial.Total != items || partial.Done == 0 || partial.Done >= items {
		t.Fatalf("partial = %d/%d, want mid-batch truncation (0 < done < %d)", partial.Done, partial.Total, items)
	}
	if len(verdicts) != partial.Done {
		t.Fatalf("len(verdicts) = %d, want partial.Done = %d", len(verdicts), partial.Done)
	}
}

func TestContextCancelledWhileWaitingForWorker(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, CacheSize: -1})
	s.Register(proc)

	started := make(chan struct{})
	go func() {
		close(started)
		_, _ = s.VerifyAnnouncement(context.Background(), announcementFor("inv", `{"n":1}`))
	}()
	<-started
	deadline := time.After(5 * time.Second)
	for proc.current.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("occupier never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.VerifyAnnouncement(ctx, announcementFor("inv", `{"n":2}`))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(proc.gate)
}

func TestStatsLatencyAndInFlight(t *testing.T) {
	s := newTestService(t, Config{})
	ann := pdAnnouncement(t)
	for i := 0; i < 3; i++ {
		if _, err := s.VerifyAnnouncement(context.Background(), ann); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after quiescence, want 0", st.InFlight)
	}
	if st.PeakInFlight < 1 {
		t.Fatalf("PeakInFlight = %d, want >= 1", st.PeakInFlight)
	}
	if st.Latency.Count != 3 || st.Latency.Mean <= 0 || st.Latency.Max < st.Latency.Min {
		t.Fatalf("latency summary inconsistent: %+v", st.Latency)
	}
	if st.Accepted != 3 || st.Rejected != 0 {
		t.Fatalf("verdict counters inconsistent: %+v", st)
	}
	if st.Workers <= 0 {
		t.Fatalf("Workers = %d, want > 0", st.Workers)
	}
}

// TestConcurrentMixedLoad exercises every path at once under the race
// detector: cached repeats, distinct contents, batches and stats readers.
func TestConcurrentMixedLoad(t *testing.T) {
	rep := reputation.NewRegistry()
	s := newTestService(t, Config{Workers: 4, CacheSize: 8, Reputation: rep})
	honest := pdAnnouncement(t)
	forged, err := core.AnnounceEnumerationForged("shady", game.PrisonersDilemma(), game.Profile{0, 0})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch (i + j) % 3 {
				case 0:
					if _, err := s.VerifyAnnouncement(context.Background(), honest); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := s.VerifyBatch(context.Background(), []core.Announcement{honest, forged}); err != nil {
						t.Error(err)
					}
				case 2:
					_ = s.Stats()
				}
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests == 0 || st.CacheHits == 0 {
		t.Fatalf("expected traffic and cache hits, got %+v", st)
	}
}
