package service

import (
	"context"
	"encoding/json"
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
	"rationality/internal/store"
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
	s.register(proc)
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
	s.register(proc)
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
	s.register(proc)
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
	s.register(proc)
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
	s.register(proc)

	const requests, streamed = 12, 12
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
	// A stream of distinct items beside them: one bound covers both paths.
	anns := make([]core.Announcement, streamed)
	for i := range anns {
		anns[i] = announcementFor("inv", fmt.Sprintf(`{"s":%d}`, i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, tr, err := streamAll(context.Background(), s, anns); err != nil || tr.Delivered != streamed {
			t.Errorf("stream beside unary requests: trailer %+v, err %v", tr, err)
		}
	}()
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
	if got := proc.calls.Load(); got != requests+streamed {
		t.Fatalf("procedure ran %d times, want %d", got, requests+streamed)
	}
}

// The auditor's re-verification is a procedure run like any other: with
// the only slot held by a gated request, an ingested record's audit waits
// for the slot instead of running a second procedure beside it.
func TestAuditTakesAProcedureSlot(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, PersistPath: t.TempDir(), AuditRate: 1})
	s.register(proc)
	open := sync.OnceFunc(func() { close(proc.gate) })
	defer open() // a failed check must not leave Close waiting on the gate

	held := make(chan error, 1)
	go func() {
		_, err := s.VerifyAnnouncement(context.Background(), announcementFor("inv", `{"held":1}`))
		held <- err
	}()
	waitFor(t, 5*time.Second, "the request holding the slot", func() bool { return proc.current.Load() == 1 })

	foreign := announcementFor("inv", `{"foreign":1}`)
	req, err := json.Marshal(core.VerifyRequest{Format: foreign.Format, Game: foreign.Game, Advice: foreign.Advice, Proof: foreign.Proof})
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Record{
		Key:     identity.DigestBytes([]byte(foreign.Format), foreign.Game, foreign.Advice, foreign.Proof),
		Verdict: core.Verdict{Accepted: true, Format: foreign.Format},
		Request: req,
		Origin:  "did:rationality:voucher",
		Stamp:   1,
	}
	if n, err := s.Ingest([]store.Record{rec}); err != nil || n != 1 {
		t.Fatalf("Ingest = %d, %v; want the record applied", n, err)
	}
	// Give an audit that ignores the bound ample time to enter the procedure.
	time.Sleep(100 * time.Millisecond)
	if got := proc.calls.Load(); got != 1 {
		t.Fatalf("procedure entered %d times while its only slot was held, want 1", got)
	}
	open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the audit", func() bool { return s.Stats().Audits == 1 })
	if got := proc.peak.Load(); got != 1 {
		t.Fatalf("observed %d concurrent executions, Workers is 1", got)
	}
}

// Stream items that wait on a singleflight leader hold no slot, so the
// leader always gets one: with the only slot held, three streams of one
// announcement X and a unary verify of X all pile up on a single
// execution of X, and every one completes once the slot frees.
func TestStreamFollowersCannotStarveTheirLeader(t *testing.T) {
	gated := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	x := &countingProc{format: "x/v1", accept: true}
	s := newTestService(t, Config{Workers: 1})
	s.register(gated)
	s.register(x)

	go func() { _, _ = s.VerifyAnnouncement(context.Background(), announcementFor("inv", `{"held":1}`)) }()
	waitFor(t, 5*time.Second, "the request holding the slot", func() bool { return gated.current.Load() == 1 })

	ann := core.Announcement{InventorID: "inv", Format: "x/v1", Game: json.RawMessage(`{"x":1}`), Advice: json.RawMessage(`{}`)}
	const streams, copies = 3, 50
	anns := make([]core.Announcement, copies)
	for i := range anns {
		anns[i] = ann
	}
	type result struct {
		tr     StreamTrailer
		frames int
		err    error
	}
	results := make(chan result, streams)
	for range streams {
		go func() {
			frames := 0
			tr, err := s.VerifyStream(context.Background(), anns, func(StreamVerdict) error {
				frames++
				return nil
			})
			results <- result{tr, frames, err}
		}()
	}
	time.Sleep(20 * time.Millisecond) // the streams queue up first
	unary := make(chan error, 1)
	go func() {
		_, err := s.VerifyAnnouncement(context.Background(), ann)
		unary <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(gated.gate)

	deadline := time.After(5 * time.Second)
	for range streams {
		select {
		case r := <-results:
			if r.err != nil || r.frames != copies || r.tr.Delivered != copies || r.tr.Truncated {
				t.Fatalf("stream: %d frames, trailer %+v, err %v; want all %d", r.frames, r.tr, r.err, copies)
			}
		case <-deadline:
			t.Fatal("streams deadlocked behind the unary leader")
		}
	}
	select {
	case err := <-unary:
		if err != nil {
			t.Fatal(err)
		}
	case <-deadline:
		t.Fatal("unary verify never returned")
	}
	if got := x.calls.Load(); got != 1 {
		t.Fatalf("X's procedure ran %d times, want 1", got)
	}
}

// streamAll runs one VerifyStream and places each streamed verdict at
// its input index, for tests that read the batch in input order.
func streamAll(ctx context.Context, s *Service, anns []core.Announcement) ([]core.Verdict, StreamTrailer, error) {
	verdicts := make([]core.Verdict, len(anns))
	tr, err := s.VerifyStream(ctx, anns, func(sv StreamVerdict) error {
		verdicts[sv.Index] = sv.Verdict
		return nil
	})
	return verdicts, tr, err
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

	anns := []core.Announcement{honest, forged, unknown, honest}
	verdicts := make([]core.Verdict, len(anns))
	delivered := make([]int, len(anns))
	tr, err := s.VerifyStream(context.Background(), anns, func(sv StreamVerdict) error {
		delivered[sv.Index]++
		verdicts[sv.Index] = sv.Verdict
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range delivered {
		if n != 1 {
			t.Fatalf("index %d delivered %d times, want once", i, n)
		}
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
	if tr.Items != 4 || tr.Delivered != 4 || tr.Accepted != 2 || tr.Rejected != 2 || tr.Truncated {
		t.Fatalf("trailer = %+v, want 4 delivered: 2 accepted, 2 rejected", tr)
	}
	if got := s.Stats().Streams; got != 1 {
		t.Fatalf("Streams = %d, want 1", got)
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
	if _, _, err := streamAll(context.Background(), s, []core.Announcement{honest, forged}); err != nil {
		t.Fatal(err)
	}
	if a, m := reported(rep, honest.InventorID, reputation.Agreed), reported(rep, honest.InventorID, reputation.Misbehaved); a != 1 || m != 0 {
		t.Fatalf("honest inventor: %d agreements, %d offences; want one agreement", a, m)
	}
	if got := reported(rep, "shady", reputation.Misbehaved); got != 1 {
		t.Fatalf("shady inventor: %d offences, want one", got)
	}
	// Cached repeats must not re-record: flooding a verifier with one
	// announcement cannot move reputations or grow the audit log.
	events := len(rep.Events())
	for i := 0; i < 5; i++ {
		if _, err := s.VerifyAnnouncement(context.Background(), forged); err != nil {
			t.Fatal(err)
		}
	}
	if got := reported(rep, "shady", reputation.Misbehaved); got != 1 {
		t.Fatalf("cached repeats re-recorded: %d offences", got)
	}
	// Batched repeats are hits too: one agreement per fresh verdict.
	if _, _, err := streamAll(context.Background(), s, []core.Announcement{honest, honest, honest}); err != nil {
		t.Fatal(err)
	}
	if got := reported(rep, honest.InventorID, reputation.Agreed); got != 1 {
		t.Fatalf("batched repeats re-recorded: %d honest agreements", got)
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
	s.register(proc)

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
	if _, _, err := streamAll(context.Background(), s, nil); err != ErrServiceClosed {
		t.Fatalf("post-close stream: err = %v, want ErrServiceClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestVerifyBatchCancelledKeepsCompletedVerdicts(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, CacheSize: -1})
	s.register(proc)
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
	// A pre-cancelled context interrupts the stream before any item runs:
	// the trailer reports the truncation with the cancellation as its
	// reason and zero delivered verdicts — cancellation must not surface
	// as per-item rejection verdicts that look like failed proofs.
	frames := 0
	tr, err := s.VerifyStream(ctx, []core.Announcement{
		announcementFor("inv", `{"n":1}`),
		announcementFor("inv", `{"n":2}`),
	}, func(StreamVerdict) error {
		frames++
		return nil
	})
	if err != nil {
		t.Fatalf("VerifyStream: %v (cancellation truncates, it does not error)", err)
	}
	if !tr.Truncated || tr.Reason != context.Canceled.Error() {
		t.Fatalf("trailer = %+v, want truncation by %q", tr, context.Canceled)
	}
	if tr.Items != 2 || tr.Delivered != 0 || frames != 0 {
		t.Fatalf("trailer = %+v with %d frames, want 0 of 2 (nothing ran before the cancel)", tr, frames)
	}
}

func TestContextCancelledWhileWaitingForWorker(t *testing.T) {
	proc := &countingProc{format: "counting/v1", accept: true, gate: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, CacheSize: -1})
	s.register(proc)

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
// detector: cached repeats, distinct contents, streams and stats readers.
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
					if _, _, err := streamAll(context.Background(), s, []core.Announcement{honest, forged}); err != nil {
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

// reported counts the reputation events of kind logged against party.
func reported(r *reputation.Registry, party string, kind reputation.EventKind) int {
	n := 0
	for _, e := range r.Events() {
		if e.Party == party && e.Kind == kind {
			n++
		}
	}
	return n
}

// register adds a custom procedure to the served registry.
func (s *Service) register(p core.Procedure) { s.procs.Register(p) }
