package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
)

func testKey(i int) identity.Hash {
	return identity.DigestBytes([]byte(strconv.Itoa(i)))
}

func testVerdict(i int) core.Verdict {
	return core.Verdict{
		Accepted: i%2 == 0,
		Format:   "test/v1",
		Reason:   fmt.Sprintf("reason-%d", i),
		Details:  map[string]string{"i": strconv.Itoa(i)},
	}
}

// waitFor polls cond until it holds or the deadline expires; the flusher
// is asynchronous, so tests observe its effects eventually.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustOpen opens the store at dir and returns its live set as full
// records, in Open's order, so a test can assert on every column; each
// Live line is first checked against the record the store serves for its
// key (liveRecords).
func mustOpen(t *testing.T, dir string, opts Options) (*Store, []Record) {
	t.Helper()
	s, live, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, liveRecords(t, s, live)
}

// liveRecords reads the records behind Open's live set back through
// Records and checks that each Live line is its record's: the verdict's
// canonical bytes (AppendJSON of the decoded verdict), its polarity and
// its certificate column.
func liveRecords(t *testing.T, s *Store, live []Live) []Record {
	t.Helper()
	keys := make([]identity.Hash, len(live))
	for i := range live {
		keys[i] = live[i].Key
	}
	blob, n, err := s.Records(keys)
	if err != nil || n != len(live) {
		t.Fatalf("reading back %d live records: %d, %v", len(live), n, err)
	}
	decoded, err := DecodeRecords(blob)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[identity.Hash]Record, len(decoded))
	for _, r := range decoded {
		byKey[r.Key] = r
	}
	recs := make([]Record, len(live))
	for i, l := range live {
		r, ok := byKey[l.Key]
		if !ok {
			t.Fatalf("live key %x has no record", l.Key[:4])
		}
		if want := r.Verdict.AppendJSON(nil); !bytes.Equal(l.Verdict, want) || l.Accepted != r.Verdict.Accepted {
			t.Fatalf("live key %x: verdict %s accepted=%v, its record holds %s", l.Key[:4], l.Verdict, l.Accepted, want)
		}
		if !bytes.Equal(l.Cert, r.Cert) || (l.Cert == nil) != (r.Cert == nil) {
			t.Fatalf("live key %x: certificate %q, its record holds %q", l.Key[:4], l.Cert, r.Cert)
		}
		recs[i] = r
	}
	return recs
}

func TestOpenEmptyDirAndRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, recs := mustOpen(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh store recovered %d records, want 0", len(recs))
	}
	const n = 10
	for i := 0; i < n; i++ {
		if !s.Append(testKey(i), testVerdict(i), nil) {
			t.Fatalf("append %d refused", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Persisted != n || st.LiveRecords != n || st.GarbageRecords != 0 {
		t.Fatalf("stats after close: %+v", st)
	}

	s2, recs2 := mustOpen(t, dir, Options{})
	if len(recs2) != n {
		t.Fatalf("recovered %d records, want %d", len(recs2), n)
	}
	if got := s2.Stats().Replayed; got != n {
		t.Fatalf("Replayed = %d, want %d", got, n)
	}
	byKey := make(map[identity.Hash]core.Verdict, n)
	for _, r := range recs2 {
		byKey[r.Key] = r.Verdict
	}
	for i := 0; i < n; i++ {
		got, ok := byKey[testKey(i)]
		if !ok {
			t.Fatalf("record %d missing after restart", i)
		}
		if !reflect.DeepEqual(got, testVerdict(i)) {
			t.Fatalf("record %d verdict = %+v, want %+v", i, got, testVerdict(i))
		}
	}
	// Records come back oldest-first: stamps strictly increase.
	for i := 1; i < len(recs2); i++ {
		if recs2[i].Stamp <= recs2[i-1].Stamp {
			t.Fatalf("records not in stamp order: %d after %d", recs2[i].Stamp, recs2[i-1].Stamp)
		}
	}
}

func TestLatestWinsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	s, _ := mustOpen(t, dir, Options{})
	s.Append(key, testVerdict(0), nil)
	s.Append(key, testVerdict(2), nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LiveRecords != 1 || st.GarbageRecords != 1 {
		t.Fatalf("stats = %+v, want 1 live / 1 garbage", st)
	}

	// Second life overwrites the key again; the third must see only the
	// newest verdict, proving stamps continue across restarts.
	s2, recs := mustOpen(t, dir, Options{})
	if len(recs) != 1 || !reflect.DeepEqual(recs[0].Verdict, testVerdict(2)) {
		t.Fatalf("second life recovered %+v, want the i=2 verdict", recs)
	}
	s2.Append(key, testVerdict(4), nil)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs3 := mustOpen(t, dir, Options{})
	if len(recs3) != 1 || !reflect.DeepEqual(recs3[0].Verdict, testVerdict(4)) {
		t.Fatalf("third life recovered %+v, want the i=4 verdict", recs3)
	}
}

func TestCompactionRewritesLiveSet(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CompactAt: 8, SyncEvery: 1})
	// Two keys, rewritten over and over: garbage accumulates fast.
	for i := 0; i < 40; i++ {
		s.Append(testKey(i%2), testVerdict(i), nil)
		// Pace the appends so the flusher sees distinct bursts and its
		// post-burst compaction check actually runs.
		waitFor(t, "append flushed", func() bool { return s.Stats().Persisted >= uint64(i+1) })
	}
	waitFor(t, "compaction", func() bool { return s.Stats().Compactions >= 1 })
	st := s.Stats()
	if st.CompactedRecords == 0 {
		t.Fatalf("compaction eliminated no records: %+v", st)
	}
	if st.LiveRecords != 2 {
		t.Fatalf("LiveRecords = %d, want 2", st.LiveRecords)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot segment missing after compaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart recovers exactly the two live verdicts, newest per key.
	_, recs := mustOpen(t, dir, Options{})
	if len(recs) != 2 {
		t.Fatalf("recovered %d records after compaction, want 2", len(recs))
	}
	for _, r := range recs {
		i, _ := strconv.Atoi(r.Verdict.Details["i"])
		if i < 38 {
			t.Fatalf("recovered stale verdict i=%d; compaction must keep the newest", i)
		}
	}
}

// liveFrames reads every live frame from the location its index line
// records, checked like every frame read.
func liveFrames(t *testing.T, s *Store) map[identity.Hash][]byte {
	t.Helper()
	frames := make(map[identity.Hash][]byte)
	var err error
	if doErr := s.do(func() {
		s.index.each(nil, func(l located) {
			frames[l.key] = make([]byte, l.n)
			if e := s.readFrame(&l, frames[l.key]); err == nil {
				err = e
			}
		})
	}); doErr != nil {
		t.Fatal(doErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// Compaction copies frames, it does not re-encode records: a frame it
// leaves at its stamp is byte-identical in the snapshot, a re-stamped one
// differs in exactly its stamp and CRC bytes, and content sums, summary
// and a reopen all agree with the index. The records cover every column —
// origin, request, certificate — and a reason holding invalid UTF-8; the
// second round copies from the snapshot and the tail alike.
func TestCompactionCopiesFrames(t *testing.T) {
	dir := t.TempDir()
	hot := map[identity.Hash]bool{}
	opts := Options{
		Origin: "5a1f3c9e7b2d4f60812a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f80",
		Retain: func(k identity.Hash) bool { return hot[k] },
	}
	s, _ := mustOpen(t, dir, opts)
	const perRound = 8
	for round := 0; round < 2; round++ {
		for i := round * perRound; i < (round+1)*perRound; i++ {
			v, req, cert := testVerdict(i), testRequest(i), []byte(nil)
			switch i % 4 {
			case 1:
				req = nil
			case 2:
				cert = []byte(fmt.Sprintf(`{"key":"k%d","sigs":["a","b","c"]}`, i))
			case 3:
				v.Reason = "bad byte \xff here"
			}
			hot[testKey(i)] = i%2 == 0
			if err := s.AppendCertified(testKey(i), v, req, cert); err != nil {
				t.Fatalf("append refused: %v", err)
			}
		}
		before, man, sum := liveFrames(t, s), manifestOf(t, s), summaryOf(t, s)
		if err := s.do(s.compact); err != nil {
			t.Fatal(err)
		}
		after, man2 := liveFrames(t, s), manifestOf(t, s)
		if len(after) != len(before) || summaryOf(t, s) != sum {
			t.Fatalf("round %d: %d frames and summary %+v after compaction, were %d and %+v", round, len(after), summaryOf(t, s), len(before), sum)
		}
		const stampAt = headerLen + keyLen
		for key, was := range before {
			now := after[key]
			if man2[key].Sum != man[key].Sum {
				t.Fatalf("round %d: key %x: content sum %08x became %08x", round, key[:3], man[key].Sum, man2[key].Sum)
			}
			if !hot[key] {
				if !bytes.Equal(now, was) || man2[key].Stamp != man[key].Stamp {
					t.Fatalf("round %d: untouched key %x: frame or stamp changed", round, key[:3])
				}
				continue
			}
			if man2[key].Stamp <= man[key].Stamp || len(now) != len(was) ||
				!bytes.Equal(now[:4], was[:4]) || !bytes.Equal(now[8:stampAt], was[8:stampAt]) ||
				!bytes.Equal(now[stampAt+stampLen:], was[stampAt+stampLen:]) {
				t.Fatalf("round %d: re-stamped key %x: the frame differs beyond its stamp and CRC bytes", round, key[:3])
			}
		}
		checkFingerprints(t, s, fmt.Sprintf("round %d", round))
		checkReplayIsIndex(t, s, fmt.Sprintf("round %d", round))
	}
	lines := indexLines(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := mustOpen(t, dir, opts)
	if reopened := indexLines(t, s2); !reflect.DeepEqual(reopened, lines) {
		t.Fatalf("reopen indexes %d lines unlike the %d the store held", len(reopened), len(lines))
	}
}

// One compaction at the service's shape (compactStore: 5120 live records
// with kilobyte requests, 1024 retired, about half re-stamped) moves
// frames: its heap is the index lines and a copy buffer, not a decoded
// live set.
func TestCompactionAllocations(t *testing.T) {
	s, _ := compactStore(t)
	var before, after runtime.MemStats
	if err := s.do(func() {
		runtime.ReadMemStats(&before)
		s.compact()
		runtime.ReadMemStats(&after)
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LiveRecords != compactLive || st.Compactions != 2 {
		t.Fatalf("after compaction: %+v", st)
	}
	allocated, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if allocated > 2<<20 || objects > 1000 {
		t.Fatalf("one compaction allocated %d bytes in %d objects, want <= 2 MiB in <= 1000", allocated, objects)
	}
}

func TestAppendAfterCloseRefused(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Append(testKey(0), testVerdict(0), nil) {
		t.Fatal("Append accepted a record after Close")
	}
}

// TestRetainShieldsHotRecordsFromRetirement: MaxLive retirement must
// prefer records the Retain hook does not vouch for — a hot verdict's
// append stamp is forever old (cache hits never re-append), so stamp
// order alone would retire exactly the records worth keeping.
func TestRetainShieldsHotRecordsFromRetirement(t *testing.T) {
	dir := t.TempDir()
	hot := map[identity.Hash]bool{testKey(0): true, testKey(1): true}
	s, _, err := Open(dir, Options{
		MaxLive:   4,
		CompactAt: 4,
		SyncEvery: 1,
		Retain:    func(k identity.Hash) bool { return hot[k] },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	// Keys 0 and 1 are the oldest appends — and the hot set. The rest is
	// a stream of newer one-off keys that forces retirement.
	const n = 20
	for i := 0; i < n; i++ {
		s.Append(testKey(i), testVerdict(i), nil)
		waitFor(t, "append flushed", func() bool { return s.Stats().Persisted >= uint64(i+1) })
	}
	waitFor(t, "retention compaction", func() bool { return s.Stats().Compactions >= 1 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs := mustOpen(t, dir, Options{})
	got := make(map[identity.Hash]bool, len(recs))
	for _, r := range recs {
		got[r.Key] = true
	}
	for k := range hot {
		if !got[k] {
			t.Fatalf("hot record retired despite Retain; survivors: %d records", len(recs))
		}
	}
}

// TestFailedCountsDeadDisk: records lost to a write failure show up in
// Failed (not Dropped, whose contract is queue overflow), and Close
// surfaces the underlying error.
func TestFailedCountsDeadDisk(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{SyncEvery: 1})
	// Kill the disk out from under the flusher: the tail handle is
	// closed, so the next write fails fatally.
	if err := s.tail.Close(); err != nil {
		t.Fatal(err)
	}
	if !s.Append(testKey(0), testVerdict(0), nil) {
		t.Fatal("append refused while the store still looks healthy")
	}
	waitFor(t, "failure counted", func() bool { return s.Stats().Failed >= 1 })
	if st := s.Stats(); st.Dropped != 0 {
		t.Fatalf("write failure miscounted as queue drop: %+v", st)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the flusher's fatal I/O error")
	}
}

// TestMaxLiveRetiresOldest: with a retention bound, compaction retires
// the oldest live records — the store's footprint tracks the bound, not
// the whole history, and a restart recovers only the newest records.
func TestMaxLiveRetiresOldest(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{MaxLive: 4, CompactAt: 4, SyncEvery: 1})
	const n = 20 // all-distinct keys: no garbage, only live growth
	for i := 0; i < n; i++ {
		s.Append(testKey(i), testVerdict(i), nil)
		waitFor(t, "append flushed", func() bool { return s.Stats().Persisted >= uint64(i+1) })
	}
	waitFor(t, "retention compaction", func() bool { return s.Stats().Compactions >= 1 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LiveRecords > 4+4 { // bound plus at most one compaction's slack
		t.Fatalf("LiveRecords = %d, want <= 8 under MaxLive=4/CompactAt=4", st.LiveRecords)
	}
	if st.CompactedRecords == 0 {
		t.Fatalf("no records retired: %+v", st)
	}

	_, recs := mustOpen(t, dir, Options{})
	if len(recs) == 0 || len(recs) > 8 {
		t.Fatalf("recovered %d records, want a bounded newest suffix", len(recs))
	}
	// Whatever survived must be a suffix of the history: nothing older
	// than the oldest possible survivor given the bound.
	for _, r := range recs {
		i, _ := strconv.Atoi(r.Verdict.Details["i"])
		if i < n-8-4 {
			t.Fatalf("record i=%d survived retention; too old for MaxLive=4", i)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

// The group commit: fewer than SyncEvery records are synced within
// syncDelay of the first, so a quiet store holds no unsynced record a
// second after its last append — Close, which syncs whatever is left,
// finds nothing to do. SyncEvery 1 still syncs every record before the
// next is written: one fsync per record, none shared.
func TestSyncCadence(t *testing.T) {
	t.Run("quiet", func(t *testing.T) {
		s, _ := mustOpen(t, t.TempDir(), Options{SyncEvery: 64})
		for i := 0; i < 3; i++ {
			s.Append(testKey(i), testVerdict(i), nil)
		}
		waitFor(t, "3 records", func() bool { return s.Stats().Persisted == 3 })
		time.Sleep(time.Second)
		synced := s.syncs.Load()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if synced == 0 || s.syncs.Load() != synced {
			t.Fatalf("a second after 3 appends: %d fsyncs, and Close made %d more; want at least 1, then none",
				synced, s.syncs.Load()-synced)
		}
	})
	t.Run("every record", func(t *testing.T) {
		s, _ := mustOpen(t, t.TempDir(), Options{SyncEvery: 1})
		const n = 50
		for i := 0; i < n; i++ {
			if !s.Append(testKey(i), testVerdict(i), nil) {
				t.Fatalf("append %d dropped", i)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := s.syncs.Load(); s.Stats().Persisted != n || got != n {
			t.Fatalf("%d records persisted with %d fsyncs, want %d and %d", s.Stats().Persisted, got, n, n)
		}
	})
}

// A live frame that fails its check during a compaction leaves the index
// and the new snapshot, and every intact frame is kept: a byte flipped
// mid-run fails only its own frame's check, and a snapshot cut short
// fails the run's one read, which is retried frame by frame so only the
// frames past the cut are lost.
func TestCompactionDropsBadFrames(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	const n = 20
	for i := 0; i < n; i++ {
		s.Append(testKey(i), testVerdict(i), nil)
	}
	waitFor(t, "records", func() bool { return s.Stats().Persisted == n })
	// damage compacts, lets hurt spoil the snapshot through its own handle
	// given the keys in snapshot order, compacts again and returns the keys
	// hurt named, which must be gone while every other record stays.
	live := n
	damage := func(hurt func(f *os.File, keys []identity.Hash, lines map[identity.Hash]idxEntry) []identity.Hash) {
		t.Helper()
		if err := s.do(s.compact); err != nil {
			t.Fatal(err)
		}
		lines := indexLines(t, s)
		keys := make([]identity.Hash, 0, len(lines))
		for k := range lines {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return lines[keys[i]].off < lines[keys[j]].off })
		f, err := os.OpenFile(filepath.Join(dir, snapshotName), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		gone := hurt(f, keys, lines)
		f.Close()
		if err := s.do(s.compact); err != nil || s.flushErr != nil {
			t.Fatalf("compaction over bad frames: %v, %v", err, s.flushErr)
		}
		after := indexLines(t, s)
		for _, k := range gone {
			if _, ok := after[k]; ok {
				t.Errorf("record %s with a bad frame is still indexed", k)
			}
		}
		if live -= len(gone); len(after) != live || s.Stats().LiveRecords != uint64(live) {
			t.Fatalf("%d lines, %d live after the compaction; want %d", len(after), s.Stats().LiveRecords, live)
		}
	}
	damage(func(f *os.File, keys []identity.Hash, lines map[identity.Hash]idxEntry) []identity.Hash {
		l := lines[keys[n/2]]
		if _, err := f.WriteAt([]byte{0xff}, l.off+int64(l.n)-1); err != nil {
			t.Fatal(err)
		}
		return keys[n/2 : n/2+1]
	})
	damage(func(f *os.File, keys []identity.Hash, lines map[identity.Hash]idxEntry) []identity.Hash {
		cut := keys[len(keys)-2:]
		if err := f.Truncate(lines[cut[0]].off + 3); err != nil {
			t.Fatal(err)
		}
		return cut
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, recs := mustOpen(t, dir, Options{}); len(recs) != live {
		t.Fatalf("reopened with %d records, want %d", len(recs), live)
	}
}
