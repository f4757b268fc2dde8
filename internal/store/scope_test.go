package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rationality/internal/identity"
)

// settle waits until every accepted Append is on disk and any compaction it
// triggered has run: a sync command runs behind the drained queue.
func settle(t *testing.T, s *Store) {
	t.Helper()
	if err := s.do(func() {}); err != nil {
		t.Fatal(err)
	}
}

// scopedDelta is one reconcile the way an exchange runs it: dst's
// fingerprints, src's answer, dst's manifest of the differing buckets,
// src's delta over them. inSync reports a probe that found nothing.
func scopedDelta(t *testing.T, dst, src *Store) (recs []Record, inSync bool) {
	t.Helper()
	fps, err := dst.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	scope, err := src.Differing(fps)
	if err != nil {
		t.Fatal(err)
	}
	if scope == nil {
		return nil, true
	}
	have, err := dst.Manifest(scope)
	if err != nil {
		t.Fatal(err)
	}
	for key := range have {
		if !scope.Contains(key) {
			t.Fatalf("scoped manifest lists %s outside its scope", key)
		}
	}
	framed, n, err := src.Delta(have, scope)
	if err != nil {
		t.Fatal(err)
	}
	return decodeFrames(t, framed, n), false
}

// reconcile moves src's news into dst through the scoped path after
// checking it against the complete-manifest path: the two deltas must be
// the same records, so the two reconciles apply the same records.
func reconcile(t *testing.T, dst, src *Store, what string) []Record {
	t.Helper()
	complete := deltaOf(t, src, manifestOf(t, dst))
	scoped, inSync := scopedDelta(t, dst, src)
	if !reflect.DeepEqual(scoped, complete) {
		t.Fatalf("%s: scoped reconcile ships %d records, the complete manifest %d:\n%s\n%s",
			what, len(scoped), len(complete), keysOf(scoped), keysOf(complete))
	}
	if inSync && len(complete) != 0 {
		t.Fatalf("%s: fingerprints agree but the complete manifest still moves %d records", what, len(complete))
	}
	applied, _, err := dst.Ingest(scoped)
	if err != nil {
		t.Fatal(err)
	}
	return applied
}

func keysOf(recs []Record) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, " %x@%d", r.Key[:3], r.Stamp)
	}
	return b.String()
}

// checkFingerprints recomputes the bucket fingerprints and the summary from
// a manifest with the reference hash (hash/fnv, as the summary was first
// written) and compares them with what the store maintains incrementally.
func checkFingerprints(t *testing.T, s *Store, what string) {
	t.Helper()
	var want [fpBuckets]uint64
	var digest uint64
	man := manifestOf(t, s)
	for key, info := range man {
		var buf [36]byte
		copy(buf[:32], key[:])
		binary.LittleEndian.PutUint32(buf[32:], info.Sum)
		h := fnv.New64a()
		_, _ = h.Write(buf[:])
		want[binary.BigEndian.Uint16(key[:2])>>6] ^= h.Sum64()
		digest ^= h.Sum64()
	}
	var got [fpBuckets]uint64
	if err := s.do(func() { got = s.index.fp }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s: maintained bucket fingerprints differ from a recomputation over %d keys", what, len(man))
	}
	if sum := summaryOf(t, s); sum.Count != len(man) || sum.Digest != digest {
		t.Fatalf("%s: Summary = %+v, the index pass gives count %d digest %x", what, sum, len(man), digest)
	}
}

// Seeded property test: over random store pairs and the mutations that
// move stamps, retire records and rebuild locations, a scoped reconcile
// ships exactly what a complete-manifest reconcile ships, the maintained
// fingerprints equal a recomputation, and a converged pair probes in-sync.
func TestScopedReconcileMatchesCompleteManifest(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			hot := make(map[identity.Hash]bool)
			opts := func(maxLive int) Options {
				return Options{CompactAt: 16, MaxLive: maxLive, Retain: func(k identity.Hash) bool { return hot[k] }}
			}
			// Every third seed runs one side under a retention bound.
			boundB := 0
			if seed%3 == 0 {
				boundB = 40
			}
			dirs := [2]string{t.TempDir(), t.TempDir()}
			a, _ := mustOpen(t, dirs[0], opts(0))
			b, _ := mustOpen(t, dirs[1], opts(boundB))
			stores := [2]*Store{a, b}
			const pool = 120
			write := func(s *Store, n int) {
				for i := 0; i < n; i++ {
					k := rng.Intn(pool)
					// Few verdict variants per key: the two sides often hold
					// equal content at different stamps, sometimes not.
					v := testVerdict(k*4 + rng.Intn(2)*2)
					var cert []byte
					if rng.Intn(5) == 0 {
						cert = []byte(fmt.Sprintf(`{"key":"%d","sigs":[]}`, k))
					}
					if err := s.AppendCertified(testKey(k), v, testRequest(k), cert); err != nil {
						t.Fatal(err)
					}
				}
				settle(t, s)
			}
			for step := 0; step < 8; step++ {
				write(a, 10+rng.Intn(30))
				write(b, 10+rng.Intn(30))
				switch step {
				case 2, 5:
					// Heat a few keys, then pile garbage until a compaction
					// re-stamps them (and, under the bound, retires cold ones).
					for i := 0; i < 10; i++ {
						hot[testKey(rng.Intn(pool))] = true
					}
					for _, s := range stores {
						before := s.Stats().Compactions
						for s.Stats().Compactions == before {
							write(s, 16)
						}
					}
				case 4:
					// Crash b with a torn tail: reopening rebuilds every
					// location from the replay.
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					appendGarbage(t, filepath.Join(dirs[1], tailName), 37)
					b, _ = mustOpen(t, dirs[1], opts(boundB))
					stores[1] = b
					if b.Stats().SalvagedBytes == 0 {
						t.Fatal("torn tail not salvaged")
					}
				}
				what := fmt.Sprintf("step %d", step)
				checkFingerprints(t, a, what+" a")
				checkFingerprints(t, b, what+" b")
				reconcile(t, a, b, what+" a<-b")
				reconcile(t, b, a, what+" b<-a")
				checkFingerprints(t, a, what+" a after")
				checkFingerprints(t, b, what+" b after")
			}
			if boundB > 0 {
				return // a bounded side declines history: the pair never fully agrees
			}
			// Converged content (stamps differ all over): nothing moves, by
			// either path, and the probe says so.
			for round := 0; round < 2; round++ {
				for _, pair := range [][2]*Store{{a, b}, {b, a}} {
					if moved := reconcile(t, pair[0], pair[1], "converged"); len(moved) != 0 {
						t.Fatalf("converged pair still moved %d records:%s", len(moved), keysOf(moved))
					}
					if _, inSync := scopedDelta(t, pair[0], pair[1]); !inSync {
						t.Fatal("converged pair does not probe in-sync")
					}
				}
			}
			if reflect.DeepEqual(manifestOf(t, a), manifestOf(t, b)) {
				t.Fatal("test premise broken: converged stores also agree on every stamp")
			}
		})
	}
}

// appendGarbage tears a segment's tail: n bytes that frame no record.
func appendGarbage(t *testing.T, path string, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(bytes.Repeat([]byte{0xa5}, n)); err != nil {
		t.Fatal(err)
	}
}

// A fingerprint set's width follows the live count, a peer folds its own
// to whatever width arrives, and malformed widths and scopes are refused.
func TestFingerprintWidthAndValidation(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	widthOf := func() int {
		fps, err := s.Fingerprints()
		if err != nil {
			t.Fatal(err)
		}
		return len(fps) / 8
	}
	if w := widthOf(); w != minWidth {
		t.Fatalf("empty store trades %d buckets, want %d", w, minWidth)
	}
	for i := 0; i < 200; i++ {
		s.Append(testKey(i), testVerdict(i), nil)
	}
	if w := widthOf(); w != 64 {
		t.Fatalf("200 live keys trade %d buckets, want 64 (%d keys a bucket)", w, keysPerBucket)
	}
	// Any legal width compares: a store answers its own folded
	// fingerprints with "nothing differs" at every one of them.
	for width := minWidth; width <= fpBuckets; width *= 2 {
		var fps []byte
		if err := s.do(func() { fps = s.index.folded(width) }); err != nil {
			t.Fatal(err)
		}
		if scope, err := s.Differing(fps); err != nil || scope != nil {
			t.Fatalf("width %d: own fingerprints differ: %v %v", width, scope, err)
		}
		fps[len(fps)-1] ^= 1
		scope, err := s.Differing(fps)
		if err != nil || len(scope) != width/8 || scope[len(scope)-1] != 0x80 {
			t.Fatalf("width %d: last bucket flipped, scope %x, %v", width, scope, err)
		}
	}
	for _, n := range []int{0, 7, 8, 24, 8 * 4, 8 * 12, 8 * 2048} {
		if _, err := s.Differing(make([]byte, n)); err == nil {
			t.Fatalf("%d fingerprint bytes accepted", n)
		}
	}
	for _, n := range []int{0, 3, 12, 256} {
		bad := make(Scope, n)
		if _, err := s.Manifest(bad); err == nil {
			t.Fatalf("Manifest took a %d-byte scope", n)
		}
		if _, _, err := s.Delta(nil, bad); err == nil {
			t.Fatalf("Delta took a %d-byte scope", n)
		}
	}
}

// One flipped byte in a live frame on disk: Delta and Records fail loudly
// and serve nothing — not the damaged record, not its intact neighbours.
// The next compaction drops the damaged record from the index and keeps
// every intact one, those written behind it included, and the store serves
// them — after a reopen too.
func TestDeltaFailsLoudlyOnCorruptLiveFrame(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CompactAt: 4})
	const n = 6
	for i := 0; i < n; i++ {
		s.Append(testKey(i), testVerdict(i), testRequest(i))
	}
	if got := deltaOf(t, s, nil); len(got) != n {
		t.Fatalf("intact store served %d of %d records", len(got), n)
	}
	victim := testKey(3)
	var at loc
	if err := s.do(func() { e, _ := s.index.get(victim); at = e.loc }); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, tailName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pos := at.off + int64(at.n) - 3 // inside the verdict body
	var one [1]byte
	if _, err := f.ReadAt(one[:], pos); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x40
	if _, err := f.WriteAt(one[:], pos); err != nil {
		t.Fatal(err)
	}

	framed, count, err := s.Delta(nil, nil)
	if err == nil || framed != nil || count != 0 {
		t.Fatalf("corrupt live frame: Delta = %d bytes, %d records, %v", len(framed), count, err)
	}
	if !strings.Contains(err.Error(), victim.String()) {
		t.Fatalf("error does not name the damaged record: %v", err)
	}
	if framed, count, err := s.Records([]identity.Hash{testKey(1), victim}); err == nil || framed != nil || count != 0 {
		t.Fatalf("corrupt live frame: Records = %d bytes, %d records, %v", len(framed), count, err)
	}
	// A delta that does not want the damaged record is unaffected.
	have := map[identity.Hash]RecordInfo{victim: manifestOf(t, s)[victim]}
	if got := deltaOf(t, s, have); len(got) != n-1 {
		t.Fatalf("delta around the damage served %d records, want %d", len(got), n-1)
	}

	// Compaction copies each live frame from where the index points: the
	// victim's fails its check and leaves, the frames behind it — the
	// re-appends that trigger the compaction included — stay.
	for i := 0; i < 4; i++ {
		s.Append(testKey(0), testVerdict(10+i), nil)
	}
	settle(t, s)
	if st := s.Stats(); st.Compactions != 1 || st.LiveRecords != n-1 {
		t.Fatalf("after compacting around the damage: %+v", st)
	}
	want := []identity.Hash{testKey(1), testKey(2), testKey(4), testKey(5), testKey(0)}
	got := deltaOf(t, s, nil)
	var keys []identity.Hash
	for _, r := range got {
		keys = append(keys, r.Key)
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("store serves%s after compaction, want every live record but the damaged one, oldest first", keysOf(got))
	}
	if !reflect.DeepEqual(got[len(got)-1].Verdict, testVerdict(13)) {
		t.Fatalf("the re-appended key serves %+v, want its newest verdict", got[len(got)-1].Verdict)
	}
	checkFingerprints(t, s, "after compacting around the damage")
	checkReplayIsIndex(t, s, "after compacting around the damage")
	man := manifestOf(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, recs := mustOpen(t, dir, Options{})
	if len(recs) != len(want) || !reflect.DeepEqual(manifestOf(t, s2), man) {
		t.Fatalf("reopen recovered %d records and manifest %v, want the %d the store served: %v", len(recs), manifestOf(t, s2), len(want), man)
	}
}
