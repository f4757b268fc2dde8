package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/transport"
)

// TestServiceWarmStartRestart is the restart acceptance test: a service
// started with persistence, fed N announcements, closed, and restarted
// over the same directory serves all N as cache hits — Stats shows
// replayed == N and misses == 0, and no procedure runs again.
func TestServiceWarmStartRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const n = 24

	anns := make([]core.Announcement, n)
	for i := range anns {
		anns[i] = announcementFor("inventor", fmt.Sprintf(`{"i":%d}`, i))
	}

	// First life: every announcement is a miss that runs the procedure.
	proc1 := &countingProc{format: "counting/v1", accept: true}
	svc1 := newTestService(t, Config{PersistPath: dir, SyncEvery: 1})
	svc1.register(proc1)
	for i := range anns {
		if _, err := svc1.VerifyAnnouncement(ctx, anns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := proc1.calls.Load(); got != n {
		t.Fatalf("first life ran the procedure %d times, want %d", got, n)
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	st1 := svc1.Stats()
	if st1.Persistence == nil || st1.Persistence.Persisted != n {
		t.Fatalf("first life persisted %+v, want %d records", st1.Persistence, n)
	}

	// Second life: the same announcements must all be warm hits.
	proc2 := &countingProc{format: "counting/v1", accept: true}
	svc2 := newTestService(t, Config{PersistPath: dir})
	svc2.register(proc2)
	for i := range anns {
		v, err := svc2.VerifyAnnouncement(ctx, anns[i])
		if err != nil {
			t.Fatal(err)
		}
		if !v.Accepted {
			t.Fatalf("replayed verdict %d lost its acceptance: %+v", i, v)
		}
	}
	if got := proc2.calls.Load(); got != 0 {
		t.Fatalf("restart recomputed %d proofs; warm start must serve from the log", got)
	}
	st2 := svc2.Stats()
	if st2.Persistence == nil || st2.Persistence.Replayed != n {
		t.Fatalf("Replayed = %+v, want %d", st2.Persistence, n)
	}
	if st2.CacheHits != n || st2.CacheMisses != 0 {
		t.Fatalf("second life hits=%d misses=%d, want %d/0", st2.CacheHits, st2.CacheMisses, n)
	}
}

// TestServiceWarmStartSurvivesTornTail: garbage appended to the tail (a
// crashed writer's torn final record) is salvaged away on restart; every
// cleanly-persisted verdict still replays and the service still serves.
func TestServiceWarmStartSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const n = 8

	svc1 := newTestService(t, Config{PersistPath: dir, SyncEvery: 1})
	proc1 := &countingProc{format: "counting/v1", accept: true}
	svc1.register(proc1)
	for i := 0; i < n; i++ {
		if _, err := svc1.VerifyAnnouncement(ctx, announcementFor("inv", fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: a half-written record at the end of the tail.
	tail := filepath.Join(dir, "verdicts.log")
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0xff, 0x13}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	proc2 := &countingProc{format: "counting/v1", accept: true}
	svc2 := newTestService(t, Config{PersistPath: dir})
	svc2.register(proc2)
	st := svc2.Stats()
	if st.Persistence == nil || st.Persistence.Replayed != n {
		t.Fatalf("Replayed = %+v, want %d despite the torn tail", st.Persistence, n)
	}
	if st.Persistence.SalvagedBytes == 0 {
		t.Fatal("torn bytes were not salvaged")
	}
	for i := 0; i < n; i++ {
		if _, err := svc2.VerifyAnnouncement(ctx, announcementFor("inv", fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := proc2.calls.Load(); got != 0 {
		t.Fatalf("salvaged restart recomputed %d proofs, want 0", got)
	}
}

// TestServiceWarmStartRealProof round-trips a real enumeration verdict
// (Details map included) through the log: the replayed verdict must be
// exactly what a fresh verification produces.
func TestServiceWarmStartRealProof(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ann := pdAnnouncement(t)

	svc1 := newTestService(t, Config{PersistPath: dir, SyncEvery: 1})
	fresh, err := svc1.VerifyAnnouncement(ctx, ann)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := newTestService(t, Config{PersistPath: dir})
	replayed, err := svc2.VerifyAnnouncement(ctx, ann)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, replayed) {
		t.Fatalf("replayed verdict drifted:\nfresh:    %+v\nreplayed: %+v", fresh, replayed)
	}
	if st := svc2.Stats(); st.CacheMisses != 0 {
		t.Fatalf("real-proof replay missed the cache: %+v", st)
	}
}

// TestServiceBatchVerdictsPersist: streamed items flow through the same
// persistence path as single verifications.
func TestServiceBatchVerdictsPersist(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const n = 12

	svc1 := newTestService(t, Config{PersistPath: dir, SyncEvery: 1})
	svc1.register(&countingProc{format: "counting/v1", accept: true})
	anns := make([]core.Announcement, n)
	for i := range anns {
		anns[i] = announcementFor("inv", fmt.Sprintf(`{"b":%d}`, i))
	}
	if _, _, err := streamAll(ctx, svc1, anns); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	proc2 := &countingProc{format: "counting/v1", accept: true}
	svc2 := newTestService(t, Config{PersistPath: dir})
	svc2.register(proc2)
	verdicts, tr, err := streamAll(ctx, svc2, anns)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Delivered != n {
		t.Fatalf("trailer = %+v, want all %d delivered", tr, n)
	}
	for i, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("batch item %d not served from the warm cache: %+v", i, v)
		}
	}
	if got := proc2.calls.Load(); got != 0 {
		t.Fatalf("batch replay recomputed %d proofs, want 0", got)
	}
}

// TestHotVerdictSurvivesChurnAndRestart: a cache-resident verdict must
// survive store retention even when a stream of newer one-off verdicts
// overflows the retention bound — residency, not append-stamp age, is
// what carries a verdict across restarts.
func TestHotVerdictSurvivesChurnAndRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Cache of 8 (= MaxLive 8): one hot announcement verified first (the
	// oldest append stamp), then distinct churn far beyond the bound.
	// The hot entry stays cache-resident throughout because every churn
	// round re-hits it, refreshing its cache recency.
	svc1 := newTestService(t, Config{PersistPath: dir, CacheSize: 8, SyncEvery: 1})
	svc1.register(&countingProc{format: "counting/v1", accept: true})
	hotAnn := announcementFor("inv", `{"hot":true}`)
	if _, err := svc1.VerifyAnnouncement(ctx, hotAnn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := svc1.VerifyAnnouncement(ctx, announcementFor("inv", fmt.Sprintf(`{"churn":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		if _, err := svc1.VerifyAnnouncement(ctx, hotAnn); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the hot announcement must be a warm hit.
	proc2 := &countingProc{format: "counting/v1", accept: true}
	svc2 := newTestService(t, Config{PersistPath: dir, CacheSize: 8})
	svc2.register(proc2)
	if _, err := svc2.VerifyAnnouncement(ctx, hotAnn); err != nil {
		t.Fatal(err)
	}
	if got := proc2.calls.Load(); got != 0 {
		t.Fatalf("hot verdict lost across restart: recomputed %d times", got)
	}
}

// TestStatsPersistenceNilWhenDisabled: without PersistPath the snapshot
// carries no persistence section at all.
func TestStatsPersistenceNilWhenDisabled(t *testing.T) {
	svc := newTestService(t, Config{})
	if st := svc.Stats(); st.Persistence != nil {
		t.Fatalf("Persistence = %+v without PersistPath, want nil", st.Persistence)
	}
}

// TestPersistRequiresCache: persistence with caching disabled would
// replay into a void and log duplicates forever; New must refuse it.
func TestPersistRequiresCache(t *testing.T) {
	_, err := New(Config{ID: "svc", CacheSize: -1, PersistPath: t.TempDir()})
	if err == nil {
		t.Fatal("New accepted PersistPath with caching disabled")
	}
}

// TestWarmStartTrimsToCacheCapacity: when the log holds more live
// verdicts than the cache can, replay keeps the newest ones instead of
// churning the whole history through eviction — and the newest verdict
// is guaranteed warm.
func TestWarmStartTrimsToCacheCapacity(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const n = 16

	svc1 := newTestService(t, Config{PersistPath: dir, SyncEvery: 1})
	svc1.register(&countingProc{format: "counting/v1", accept: true})
	anns := make([]core.Announcement, n)
	for i := range anns {
		anns[i] = announcementFor("inv", fmt.Sprintf(`{"i":%d}`, i))
		if _, err := svc1.VerifyAnnouncement(ctx, anns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	const smallCache = 4
	proc2 := &countingProc{format: "counting/v1", accept: true}
	svc2 := newTestService(t, Config{PersistPath: dir, CacheSize: smallCache})
	svc2.register(proc2)
	st := svc2.Stats()
	if st.CacheEntries > smallCache {
		t.Fatalf("replay overfilled the cache: %d entries, cap %d", st.CacheEntries, smallCache)
	}
	// Replayed reports what actually survived in the cache — never the
	// on-disk live set, and never more than the cache holds.
	if got := st.Persistence.Replayed; got != uint64(st.CacheEntries) || got == 0 {
		t.Fatalf("Replayed = %d, want the cache population %d (non-zero)", got, st.CacheEntries)
	}
	// The newest verdict was replayed last and must be warm.
	if _, err := svc2.VerifyAnnouncement(ctx, anns[n-1]); err != nil {
		t.Fatal(err)
	}
	if got := proc2.calls.Load(); got != 0 {
		t.Fatalf("newest verdict was not warm after capacity-trimmed replay (%d procedure runs)", got)
	}
}

// scriptedProc answers each game with the verdict scripted for it.
type scriptedProc struct {
	verdicts map[string]core.Verdict
	calls    atomic.Int64
}

func (p *scriptedProc) Format() string { return "scripted/v1" }

func (p *scriptedProc) Verify(game, _, _ json.RawMessage) (*core.Verdict, error) {
	p.calls.Add(1)
	v := p.verdicts[string(game)]
	return &v, nil
}

// wireReplies verifies every announcement over the wire, once unary and
// once as one verify-stream, and returns the raw payloads: the verdict
// replies and the stream frames, both by announcement index.
func wireReplies(t *testing.T, s *Service, anns []core.Announcement) (unary, frames [][]byte) {
	t.Helper()
	ctx := context.Background()
	c := transport.DialInProc(s)
	defer c.Close()
	unary = make([][]byte, len(anns))
	for i, ann := range anns {
		req, err := transport.NewMessage(core.MsgVerify, core.VerifyRequest{Format: ann.Format, Game: ann.Game, Advice: ann.Advice})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Call(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		unary[i] = resp.Payload
	}
	req, err := transport.NewMessage(MsgVerifyStream, BatchVerifyRequest{Announcements: anns})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.CallStream(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	frames = make([][]byte, len(anns))
	for {
		m, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == MsgStreamTrailer {
			return unary, frames
		}
		var sv StreamVerdict
		if err := m.Decode(&sv); err != nil {
			t.Fatal(err)
		}
		frames[sv.Index] = m.Payload
	}
}

// TestRestartRepliesAreByteIdentical: after a restart every unary verify
// reply and every verify-stream frame — each a cache hit installed from
// the replayed log's bytes — is byte for byte the one the authority sent
// before it, for verdicts whose strings need escapes, non-ASCII and <>&,
// with empty and absent details, a details key the log's canonical check
// declines, and a certified record whose frame carries its certificate.
func TestRestartRepliesAreByteIdentical(t *testing.T) {
	scripted := []core.Verdict{
		{Accepted: true, Format: "scripted/v1", Details: map[string]string{"x": "(1/2, 1/2)", "lambda": "0"}},
		{Format: "scripted/v1", Reason: `advice "participate" is not a best reply \ here`},
		{Format: "scripted/v1", Reason: "λ = -1 ≠ μ, naïve ☃ \U0001F600"},
		{Format: "scripted/v1", Reason: "1 < 2 && 3 > 2", Details: map[string]string{"v": "<a&b>"}},
		{Format: "scripted/v1", Reason: "escaped key", Details: map[string]string{"<k>": "1", "k": "2"}},
		{Accepted: true, Format: "scripted/v1", Details: map[string]string{}},
		{Accepted: true, Format: "scripted/v1"},
		{Format: "scripted/v1", Reason: "tab\tnewline\n separator\u2028 del\x7f"},
		{Accepted: true, Format: "scripted/v1", Reason: "certified", Details: map[string]string{"k": "v"}},
	}
	proc := &scriptedProc{verdicts: map[string]core.Verdict{}}
	anns := make([]core.Announcement, len(scripted))
	for i, v := range scripted {
		game := fmt.Sprintf(`{"script":%d}`, i)
		proc.verdicts[game] = v
		anns[i] = core.Announcement{InventorID: "inv", Format: "scripted/v1", Game: json.RawMessage(game), Advice: json.RawMessage(`{}`)}
	}
	dir := t.TempDir()
	svc1 := newTestService(t, Config{PersistPath: dir, SyncEvery: 1})
	svc1.register(proc)
	fresh, _ := wireReplies(t, svc1, anns) // every one a miss
	certified := anns[len(anns)-1]
	key := identity.DigestBytes([]byte(certified.Format), certified.Game, certified.Advice, certified.Proof)
	if err := svc1.StoreCertificate(&core.Certificate{
		Key: key.String(), Verdict: scripted[len(scripted)-1], Panel: []byte{0x01}, Sigs: [][]byte{[]byte("sig")},
	}); err != nil {
		t.Fatal(err)
	}
	unary, frames := wireReplies(t, svc1, anns) // every one a hit
	for i := range anns {
		if !bytes.Equal(unary[i], fresh[i]) {
			t.Fatalf("verdict %d: the hit replied %s, the miss %s", i, unary[i], fresh[i])
		}
	}
	if !bytes.Contains(frames[len(anns)-1], []byte(`"certificate":`)) {
		t.Fatalf("the certified item streamed without its certificate: %s", frames[len(anns)-1])
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	ran := proc.calls.Load()
	svc2 := newTestService(t, Config{PersistPath: dir})
	svc2.register(proc)
	if got := svc2.Stats().Persistence.Replayed; got != uint64(len(anns)) {
		t.Fatalf("replayed %d verdicts, want %d", got, len(anns))
	}
	unary2, frames2 := wireReplies(t, svc2, anns)
	for i := range anns {
		if !bytes.Equal(unary2[i], unary[i]) {
			t.Errorf("verdict %d after restart:\n reply %s\n  was  %s", i, unary2[i], unary[i])
		}
		if !bytes.Equal(frames2[i], frames[i]) {
			t.Errorf("verdict %d after restart:\n frame %s\n  was  %s", i, frames2[i], frames[i])
		}
	}
	if st := svc2.Stats(); st.CacheMisses != 0 || proc.calls.Load() != ran {
		t.Fatalf("after restart: %d misses, %d procedure runs; want every reply a hit", st.CacheMisses, proc.calls.Load()-ran)
	}
}
