package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"rationality/internal/core"
	"rationality/internal/identity"
)

// The has-request bit rides idxEntry's padding: a line must not grow.
func TestIdxEntryDoesNotGrow(t *testing.T) {
	if got := unsafe.Sizeof(idxEntry{}); got != 48 {
		t.Fatalf("idxEntry is %d bytes, want 48", got)
	}
}

// any3 is a table wildcard.
const any3 = -1

// stamp relations of incoming against standing.
const (
	older = iota
	equal
	newer
)

// TestMergeTable states the join as first-match rows with wildcards and
// checks merge against it on every cell of (held, polarity =/≠, certified
// ×2, has-request ×2, proven ×2, stamp </=/>).
func TestMergeTable(t *testing.T) {
	type row struct {
		name                           string
		held, samePol, curCert, inCert int
		curProven, inProven, stamp     int
		want                           string
		carryCert, restamp             bool
	}
	rows := []row{
		{name: "no standing record: anything lands", held: 0, samePol: any3, curCert: any3, inCert: any3, curProven: any3, inProven: any3, stamp: any3, want: "write"},
		{name: "local re-append over a certified record keeps the certificate", held: 1, samePol: 1, curCert: 1, inCert: 0, curProven: any3, inProven: 1, stamp: any3, want: "write", carryCert: true},
		{name: "local flip drops the certificate", held: 1, samePol: 0, curCert: any3, inCert: any3, curProven: any3, inProven: 1, stamp: any3, want: "write"},
		{name: "local write always lands (no-op re-append refreshes the stamp)", held: 1, samePol: 1, curCert: any3, inCert: any3, curProven: any3, inProven: 1, stamp: any3, want: "write"},
		{name: "contradiction of a locally proven verdict is refuted whatever the stamp or certificate", held: 1, samePol: 0, curCert: any3, inCert: any3, curProven: 1, inProven: 0, stamp: any3, want: "refute"},
		{name: "contradicting certificate: newer stamp still wins on stamps, without the old certificate", held: 1, samePol: 0, curCert: any3, inCert: any3, curProven: 0, inProven: 0, stamp: newer, want: "write"},
		{name: "contradicting certificate: not newer, the standing verdict stands", held: 1, samePol: 0, curCert: any3, inCert: any3, curProven: 0, inProven: 0, stamp: any3, want: "keep"},
		{name: "finding 7: receiver's counter ahead, incoming certified — lands re-stamped", held: 1, samePol: 1, curCert: 0, inCert: 1, curProven: any3, inProven: 0, stamp: older, want: "write", restamp: true},
		{name: "finding 7 at equal stamps", held: 1, samePol: 1, curCert: 0, inCert: 1, curProven: any3, inProven: 0, stamp: equal, want: "write", restamp: true},
		{name: "certificate at a newer stamp keeps its stamp", held: 1, samePol: 1, curCert: 0, inCert: 1, curProven: any3, inProven: 0, stamp: newer, want: "write"},
		{name: "a bare copy never replaces a certified one", held: 1, samePol: 1, curCert: 1, inCert: 0, curProven: any3, inProven: 0, stamp: any3, want: "keep"},
		{name: "same certified bit: newer stamp wins", held: 1, samePol: 1, curCert: any3, inCert: any3, curProven: any3, inProven: 0, stamp: newer, want: "write"},
		{name: "same certified bit: not newer, keep", held: 1, samePol: 1, curCert: any3, inCert: any3, curProven: any3, inProven: 0, stamp: any3, want: "keep"},
	}
	match := func(want, got int) bool { return want == any3 || want == got }
	b := func(i int) bool { return i == 1 }
	used := make([]int, len(rows))
	cells := 0
	for bits := 0; bits < 1<<8; bits++ {
		bit := func(i int) int { return bits >> i & 1 }
		held, samePol, curCert, inCert, curReq, inReq, curProven, inProven :=
			bit(0), bit(1), bit(2), bit(3), bit(4), bit(5), bit(6), bit(7)
		for stamp := older; stamp <= newer; stamp++ {
			cells++
			cur := idxEntry{stamp: 10, accepted: true, certified: b(curCert), hasRequest: b(curReq), origin: "peer"}
			if b(curProven) {
				cur.origin = "me"
			}
			in := idxEntry{stamp: uint64(9 + stamp), accepted: b(samePol), certified: b(inCert), hasRequest: b(inReq), origin: "peer"}
			got := merge(cur, b(held), in, "me", b(inProven))
			ri := -1
			for i, r := range rows {
				if match(r.held, held) && match(r.samePol, samePol) && match(r.curCert, curCert) && match(r.inCert, inCert) &&
					match(r.curProven, curProven) && match(r.inProven, inProven) && match(r.stamp, stamp) {
					ri = i
					break
				}
			}
			if ri < 0 {
				t.Fatalf("cell held=%d cur=%+v in=%+v matches no row", held, cur, in)
			}
			used[ri]++
			r := rows[ri]
			want := decision{write: r.want == "write", refute: r.want == "refute", carryCert: r.carryCert, restamp: r.restamp,
				// Every write over a standing record carries its request when
				// the incoming version has none.
				carryRequest: r.want == "write" && b(held) && b(curReq) && !b(inReq)}
			if got != want {
				t.Errorf("%s:\n held=%v cur=%+v\n in=%+v\n merge = %+v, want %+v", r.name, b(held), cur, in, got, want)
			}
		}
	}
	for i, n := range used {
		if n == 0 {
			t.Errorf("row %q is shadowed: no cell reaches it", rows[i].name)
		}
	}
	t.Logf("%d cells over %d rows", cells, len(rows))
	// An unkeyed store has proven nothing: it never refutes.
	lie := idxEntry{stamp: 11, accepted: false}
	if got := merge(idxEntry{stamp: 10, accepted: true}, true, lie, "", false); got != (decision{write: true}) {
		t.Errorf("unkeyed store against a newer contradiction: %+v, want a plain write", got)
	}
}

// indexLines snapshots the store's index on the flusher goroutine.
func indexLines(t *testing.T, s *Store) map[identity.Hash]idxEntry {
	t.Helper()
	m := make(map[identity.Hash]idxEntry)
	if err := s.do(func() { s.index.each(nil, func(l located) { m[l.key] = l.idxEntry }) }); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkReplayIsIndex is the invariant that lets replay stay a stamp fold
// while writes are a join: what replay reads off the files is, line for
// line (stamp, sum, polarity, certified, has-request, origin, location),
// the live index.
func checkReplayIsIndex(t *testing.T, s *Store, what string) {
	t.Helper()
	var replayedIx index
	var err error
	idx := make(map[identity.Hash]idxEntry)
	if doErr := s.do(func() {
		_, err = replay(s.dir, &replayedIx)
		s.index.each(nil, func(l located) { idx[l.key] = l.idxEntry })
	}); doErr != nil {
		t.Fatal(doErr)
	}
	if err != nil {
		t.Fatalf("%s: replay: %v", what, err)
	}
	if replayedIx.len() != len(idx) {
		t.Fatalf("%s: replay finds %d keys, the index holds %d", what, replayedIx.len(), len(idx))
	}
	replayedIx.each(nil, func(l located) {
		if idx[l.key] != l.idxEntry {
			t.Fatalf("%s: key %x: replay reads %+v, the index says %+v", what, l.key[:3], l.idxEntry, idx[l.key])
		}
	})
	if replayedIx.fp != s.index.fp {
		t.Fatalf("%s: replay folds other bucket fingerprints than the index keeps", what)
	}
}

// lawWorld is the model behind the merge-law sweep: procedures are
// deterministic, so a key has one true polarity, one verdict per polarity,
// one request and one certificate.
type lawWorld struct{}

func (lawWorld) truth(k int) bool { return k%2 == 0 }
func (w lawWorld) verdict(k int, accepted bool) core.Verdict {
	return core.Verdict{Accepted: accepted, Format: "law/v1", Reason: fmt.Sprintf("k%d", k), Details: map[string]string{"k": fmt.Sprint(k)}}
}
func (lawWorld) cert(k int) []byte {
	return []byte(fmt.Sprintf(`{"key":"k%d","sigs":["a","b","c"]}`, k))
}

// TestMergeLaws drives 3–4 keyed stores through random local appends,
// certified appends, a liar's contradictions, audit repairs, reopens and
// pairwise Delta → DecodeRecords → Ingest in random order, one seed per
// subtest (the seed is the subtest's name, so a failure names it), and
// checks the laws of the join:
//
//   - idempotence: re-ingesting a delta applies nothing;
//   - commutativity and associativity: whatever the order, once every pair
//     has exchanged, all stores hold equal content (summaryOf) on every key
//     without a local-proof contradiction, and a key certified anywhere is
//     certified everywhere;
//   - no store ever loses a request column it once held;
//   - a contradiction of a locally proven verdict is refuted on both sides
//     and overwrites neither;
//   - after every step replay(files) == live index, and once more on a
//     copy with the tail cut at a random byte.
func TestMergeLaws(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { mergeLaws(t, seed) })
	}
}

func mergeLaws(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var w lawWorld
	const keys = 6      // keys 0..3 are honest everywhere
	const contested = 4 // keys 4, 5: the last store lies about them
	n := 3 + rng.Intn(2)
	liar := n - 1
	stores := make([]*Store, n)
	dirs := make([]string, n)
	open := func(i int) {
		opts := Options{Origin: identity.PartyID(fmt.Sprintf("p%d", i))}
		if (seed+int64(i))%3 == 0 {
			opts.CompactAt = 4 // some stores compact mid-run
		}
		stores[i], _ = mustOpen(t, dirs[i], opts)
	}
	for i := range stores {
		dirs[i] = t.TempDir()
		open(i)
	}
	hadRequest := make([]map[identity.Hash]bool, n)
	for i := range hadRequest {
		hadRequest[i] = make(map[identity.Hash]bool)
	}
	// check vets the stores a step wrote to (none named: all of them).
	check := func(what string, wrote ...int) {
		t.Helper()
		for i, s := range stores {
			if len(wrote) > 0 && i != wrote[0] {
				continue
			}
			checkReplayIsIndex(t, s, fmt.Sprintf("%s: store %d", what, i))
			lines := indexLines(t, s)
			for key := range hadRequest[i] {
				if l, ok := lines[key]; !ok || !l.hasRequest {
					t.Fatalf("%s: store %d lost the request column of %x", what, i, key[:3])
				}
			}
			for key, l := range lines {
				if l.hasRequest {
					hadRequest[i][key] = true
				}
			}
		}
	}
	// pull is dst <- src as the service runs it: the signer's identity is
	// the origin every applied record carries.
	pull := func(dst, src int) (applied []Record, refuted []Refutation) {
		t.Helper()
		framed, _, err := stores[src].Delta(manifestOf(t, stores[dst]), nil)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			recs, err := DecodeRecords(framed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				recs[i].Origin = stores[src].opts.Origin
			}
			a, r, err := stores[dst].Ingest(recs)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				applied, refuted = a, r
			} else if len(a) != 0 {
				t.Fatalf("re-ingesting the delta %d -> %d applied%s", src, dst, keysOf(a))
			}
		}
		return applied, refuted
	}
	// repair is the audit loop's write: an honest store that holds a
	// peer's wrong polarity appends its own re-verification.
	repair := func(i int) {
		for k := contested; k < keys; k++ {
			if info, ok := manifestOf(t, stores[i])[testKey(k)]; ok && info.Rejected == w.truth(k) {
				stores[i].Append(testKey(k), w.verdict(k, w.truth(k)), testRequest(k))
			}
		}
		settle(t, stores[i])
	}
	for step := 0; step < 40; step++ {
		i := rng.Intn(n)
		k := rng.Intn(keys)
		var req []byte
		if rng.Intn(2) == 0 {
			req = testRequest(k)
		}
		what := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(10); {
		case op < 3: // a fresh local verdict — the liar's is wrong on contested keys
			accepted := w.truth(k)
			if i == liar && k >= contested {
				accepted = !accepted
			}
			stores[i].Append(testKey(k), w.verdict(k, accepted), req)
			settle(t, stores[i])
			what += fmt.Sprintf(": store %d appends key %d", i, k)
		case op < 5: // a quorum certificate lands (honest keys only)
			k %= contested
			if err := stores[i].AppendCertified(testKey(k), w.verdict(k, w.truth(k)), req, w.cert(k)); err != nil {
				t.Fatal(err)
			}
			settle(t, stores[i])
			what += fmt.Sprintf(": store %d certifies key %d", i, k)
		case op < 6:
			if i != liar {
				repair(i)
				what += fmt.Sprintf(": store %d repairs", i)
			}
		case op < 7:
			if err := stores[i].Close(); err != nil {
				t.Fatal(err)
			}
			open(i)
			what += fmt.Sprintf(": store %d reopens", i)
		default:
			j := (i + 1 + rng.Intn(n-1)) % n
			pull(i, j)
			what += fmt.Sprintf(": store %d pulls from %d", i, j)
		}
		check(what, i)
	}

	// Every honest store proves the contested keys itself, then the liar's
	// word meets them: refuted on both sides, neither overwritten.
	for i := 0; i < liar; i++ {
		for k := contested; k < keys; k++ {
			stores[i].Append(testKey(k), w.verdict(k, w.truth(k)), testRequest(k))
		}
		settle(t, stores[i])
	}
	for k := contested; k < keys; k++ {
		stores[liar].Append(testKey(k), w.verdict(k, !w.truth(k)), nil)
	}
	settle(t, stores[liar])
	// (Pushed as a rumor is — Records, no manifest — because a delta ships a
	// contradiction only from the side whose stamp is newer.)
	push := func(dst, src int) []Refutation {
		t.Helper()
		framed, n, err := stores[src].Records([]identity.Hash{testKey(contested), testKey(contested + 1)})
		if err != nil {
			t.Fatal(err)
		}
		applied, refuted, err := stores[dst].Ingest(decodeFrames(t, framed, n))
		if err != nil || len(applied) != 0 {
			t.Fatalf("store %d ingesting store %d's contradictions applied%s (%v)", dst, src, keysOf(applied), err)
		}
		return refuted
	}
	for i := 0; i < liar; i++ {
		if there, back := push(i, liar), push(liar, i); len(there) != keys-contested || len(back) != keys-contested {
			t.Fatalf("store %d <-> liar: %d and %d refutations, want %d each", i, len(there), len(back), keys-contested)
		}
	}
	// Convergence: rounds of all-pairs pulls until nothing moves.
	for round := 0; ; round++ {
		moved := 0
		for dst := range stores {
			for src := range stores {
				if dst != src {
					applied, _ := pull(dst, src)
					moved += len(applied)
				}
			}
		}
		check(fmt.Sprintf("convergence round %d", round))
		if moved == 0 {
			break
		}
		if round == 8 {
			t.Fatalf("still moving %d records after %d all-pairs rounds", moved, round)
		}
	}
	ref := manifestOf(t, stores[0])
	for i, s := range stores {
		man := manifestOf(t, s)
		for k := 0; k < keys; k++ {
			key := testKey(k)
			got, held := man[key]
			switch {
			case k >= contested:
				accepted := w.truth(k) != (i == liar)
				if !held || got.Rejected == accepted {
					t.Fatalf("store %d holds contested key %d as %+v (held %v); a locally proven verdict was overwritten", i, k, got, held)
				}
			default:
				want, wantHeld := ref[key]
				if held != wantHeld || got.Sum != want.Sum || got.Certified != want.Certified || (held && got.Rejected == w.truth(k)) {
					t.Fatalf("store %d holds key %d as %+v (held %v), store 0 as %+v (held %v)", i, k, got, held, want, wantHeld)
				}
			}
		}
		if i < liar && summaryOf(t, s) != summaryOf(t, stores[0]) {
			t.Fatalf("honest stores 0 and %d end with different summaries", i)
		}
	}
	for k := 0; k < contested; k++ {
		certified := 0
		for _, s := range stores {
			if manifestOf(t, s)[testKey(k)].Certified {
				certified++
			}
		}
		if certified != 0 && certified != n {
			t.Fatalf("key %d is certified on %d of %d stores", k, certified, n)
		}
	}

	// Once more with the tail cut at a random byte: a copy of one store's
	// files must open (salvaging) to an index that is again its replay.
	victim := rng.Intn(n)
	if err := stores[victim].Close(); err != nil {
		t.Fatal(err)
	}
	cut := t.TempDir()
	for _, name := range []string{snapshotName, tailName} {
		data, err := os.ReadFile(filepath.Join(dirs[victim], name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == tailName {
			data = data[:rng.Intn(len(data)+1)]
		}
		if err := os.WriteFile(filepath.Join(cut, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := mustOpen(t, cut, Options{})
	checkReplayIsIndex(t, s, "after a cut tail")
}

// A plain local re-append over a certified record — in the service, any
// cache miss on an evicted, already-certified key — must not erase the
// certificate from the log.
func TestReappendKeepsCertificate(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	key, cert := testKey(0), []byte(`{"key":"ab","sigs":["a","b","c"]}`)
	s.Append(key, testVerdict(0), testRequest(0))
	if err := s.AppendCertified(key, testVerdict(0), testRequest(0), cert); err != nil {
		t.Fatal(err)
	}
	certified := manifestOf(t, s)[key]
	s.Append(key, testVerdict(0), testRequest(0))
	got := manifestOf(t, s)[key]
	if !got.Certified || got.Sum != certified.Sum || got.Stamp <= certified.Stamp {
		t.Fatalf("after the re-append the manifest says %+v, want the certified content %+v at a fresh stamp", got, certified)
	}
	// A flipped verdict is another matter: the certificate vouched for
	// the old polarity and goes, as in the service's cache.
	other := testKey(1)
	if err := s.AppendCertified(other, testVerdict(0), nil, cert); err != nil {
		t.Fatal(err)
	}
	s.Append(other, testVerdict(1), nil)
	if manifestOf(t, s)[other].Certified {
		t.Fatal("a certificate survived a flip of the verdict it certified")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpen(t, dir, Options{})
	for _, r := range recs {
		if r.Key == key && !bytes.Equal(r.Cert, cert) {
			t.Fatalf("certificate after reopen = %q, want %q", r.Cert, cert)
		}
		if r.Key == other && r.Cert != nil {
			t.Fatalf("flipped record reopened with certificate %q", r.Cert)
		}
	}
}

// StoreCertificate appends with no request: the standing record's request
// column must ride into the certified frame, on disk and on the wire, or a
// certified record could never be audited.
func TestCertifiedAppendKeepsRequest(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	key, req, cert := testKey(0), testRequest(0), []byte(`{"key":"ab","sigs":[]}`)
	s.Append(key, testVerdict(0), req)
	if err := s.AppendCertified(key, testVerdict(0), nil, cert); err != nil {
		t.Fatal(err)
	}
	d := deltaOf(t, s, nil)
	if len(d) != 1 || !bytes.Equal(d[0].Request, req) || !bytes.Equal(d[0].Cert, cert) {
		t.Fatalf("delta after the certified append: %+v", d)
	}
	// The same join on the receiving side: a certified record that arrives
	// without a request keeps the one the receiver holds.
	p, _ := mustOpen(t, t.TempDir(), Options{})
	p.Append(key, testVerdict(0), req)
	d[0].Request = nil
	applied, _, err := p.Ingest(d)
	if err != nil || len(applied) != 1 || !bytes.Equal(applied[0].Request, req) {
		t.Fatalf("ingest of a request-less certificate applied %+v (%v), want the standing request carried", applied, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpen(t, dir, Options{})
	if len(recs) != 1 || !bytes.Equal(recs[0].Request, req) || !bytes.Equal(recs[0].Cert, cert) {
		t.Fatalf("reopened: %+v", recs)
	}
}

// A crash can tear the five-byte header itself. What is left is a prefix
// of the header: recovered to an empty tail — no compaction, no snapshot.
func TestTornHeaderRecoversWithoutCompaction(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tailName), []byte("RVL"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, recs := mustOpen(t, dir, Options{})
	if st := s.Stats(); len(recs) != 0 || st.Compactions != 0 || st.SalvagedBytes != 3 {
		t.Fatalf("torn header: %d records, stats %+v; want none, no compaction, 3 bytes salvaged", len(recs), st)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !os.IsNotExist(err) {
		t.Fatalf("a snapshot was written for a torn header (stat: %v)", err)
	}
	s.Append(testKey(0), testVerdict(0), nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, recs := mustOpen(t, dir, Options{}); len(recs) != 1 {
		t.Fatalf("append after the torn header did not survive: %d records", len(recs))
	}
}

// A segment in any other layout — here a headerless legacy tail, and a
// snapshot from the future — is refused with the version error and its
// file keeps every byte.
func TestOtherLayoutsRefusedAndUntouched(t *testing.T) {
	legacy, _ := buildTail(t, 2)
	legacy = legacy[segmentHeaderLen:] // frames with no header, as the first layout had
	future := append([]byte("RVLS\x05"), legacy...)
	for name, tc := range map[string]struct {
		file string
		data []byte
	}{
		"headerless tail":     {tailName, legacy},
		"future tail":         {tailName, future},
		"short foreign tail":  {tailName, []byte("RVX")},
		"headerless snapshot": {snapshotName, legacy},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, _, err := Open(dir, Options{})
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a segment in another layout")
			}
			if !errors.Is(err, errVersion) {
				t.Fatalf("Open failed with %v, want the version error", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, tc.data) {
				t.Fatalf("the refused file changed: %d bytes, was %d", len(got), len(tc.data))
			}
			if names, _ := os.ReadDir(dir); len(names) != 2 { // the file and the lock
				t.Fatalf("the refusal left %d files in the directory, want the segment and the lock", len(names))
			}
		})
	}
}

// TestFrozenV4Fixture opens a copy of segments written by the parent of
// the change that made v4 the only layout: one snapshot record, and a tail
// holding a superseded bare record and its certified successor with origin
// and request. It is the proof that the layout did not change, and the
// tripwire for any later accidental format edit.
func TestFrozenV4Fixture(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapshotName, tailName} {
		data, err := os.ReadFile(filepath.Join("testdata", "v4", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const origin = identity.PartyID("5a1f3c9e7b2d4f60812a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f80")
	s, recs := mustOpen(t, dir, Options{Origin: origin})
	want := []Record{{
		Key:     identity.DigestBytes([]byte("fixture/v4"), []byte(`{"n":0}`), []byte(`[0,1]`), []byte(`"p"`)),
		Stamp:   2,
		Origin:  origin,
		Request: []byte(`{"format":"fixture/v4","game":{"n":0},"advice":[0,1],"proof":"p"}`),
		Verdict: core.Verdict{Format: "fixture/v4", Reason: "fixture <record> 0 & co", Details: map[string]string{"n": "0", "unit": "µs"}},
	}, {
		Key:     identity.DigestBytes([]byte("fixture/v4"), []byte(`{"n":1}`), []byte(`[0,1]`), []byte(`"p"`)),
		Stamp:   4,
		Origin:  origin,
		Request: []byte(`{"format":"fixture/v4","game":{"n":1},"advice":[0,1],"proof":"p"}`),
		Cert:    []byte(`{"key":"fixture","verdict":{"accepted":true},"panel":"Bw==","sigs":["a","b","c"]}`),
		Verdict: core.Verdict{Accepted: true, Format: "fixture/v4", Reason: "fixture <record> 1 & co", Details: map[string]string{"n": "1", "unit": "µs"}},
	}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("fixture replayed\n %+v\nwant\n %+v", recs, want)
	}
	man := manifestOf(t, s)
	for i, sum := range []uint32{0xf0d860e0, 0xd28129e5} { // as the writer's own index had them
		if got := man[want[i].Key]; got.Sum != sum || got.Stamp != want[i].Stamp || got.Certified != (i == 1) || got.Rejected != (i == 0) {
			t.Fatalf("fixture record %d: manifest line %+v, want sum %08x", i, got, sum)
		}
	}
	if st := s.Stats(); st.Replayed != 2 || st.LiveRecords != 2 || st.GarbageRecords != 1 || st.SalvagedBytes != 0 || st.Compactions != 0 {
		t.Fatalf("fixture stats = %+v", st)
	}
	checkReplayIsIndex(t, s, "fixture")
	lines := indexLines(t, s)
	if l := lines[want[0].Key]; l.seg != segSnap || !l.hasRequest {
		t.Fatalf("snapshot record indexed as %+v", l)
	}
	if l := lines[want[1].Key]; l.seg != segTail || !l.hasRequest || !l.certified {
		t.Fatalf("tail record indexed as %+v", l)
	}
	// The bytes themselves: re-encoding what was read gives the files back.
	data, _ := os.ReadFile(filepath.Join("testdata", "v4", snapshotName))
	again, err := EncodeRecords(want[:1])
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding the snapshot record gives %d bytes (%v), the fixture holds %d", len(again), err, len(data))
	}
}

// The content sum is a function of the record: what Append advertises
// before Close is what Open computes after, and what a replica holds
// after Delta → DecodeRecords → Ingest — also for verdicts whose strings
// hold invalid UTF-8 (which encoding/json writes as an escape but reads
// back as the rune), control bytes and the characters it HTML-escapes.
func TestContentSumIsAFunctionOfTheRecord(t *testing.T) {
	const seed = 24
	rng := rand.New(rand.NewSource(seed))
	alphabet := []string{"a", "é", "\xff", "\xc3", "\xed\xa0\x80", "\x00", "\x1f", "<", ">", "&", "\u2028", "\\", `"`, `\ufffd`, "\ufffd", "\x7f"}
	fuzz := func() string {
		var b []byte
		for n := rng.Intn(6); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	dir := t.TempDir()
	a, _ := mustOpen(t, dir, Options{})
	const n = 64
	for i := 0; i < n; i++ {
		v := core.Verdict{Accepted: i%2 == 0, Format: "fuzz/v1", Reason: fuzz()}
		if i%3 != 0 {
			v.Details = map[string]string{fuzz(): fuzz(), "k" + fuzz(): fuzz()}
		}
		if i == 0 {
			v.Reason = "bad byte \xff here"
		}
		var cert []byte
		if i%5 == 0 {
			cert = []byte(`{"sigs":[]}`)
		}
		if err := a.AppendCertified(testKey(i), v, testRequest(i), cert); err != nil {
			t.Fatalf("append refused: %v", err)
		}
	}
	atAppend := manifestOf(t, a)
	if len(atAppend) != n {
		t.Fatalf("seed %d: %d records live, want %d", seed, len(atAppend), n)
	}
	b, _ := mustOpen(t, t.TempDir(), Options{})
	if moved := pull(t, b, a); len(moved) != n {
		t.Fatalf("seed %d: replica applied %d records, want %d", seed, len(moved), n)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2, _ := mustOpen(t, dir, Options{})
	reopened, replica := manifestOf(t, a2), manifestOf(t, b)
	for key, want := range atAppend {
		if reopened[key].Sum != want.Sum || replica[key].Sum != want.Sum {
			t.Errorf("seed %d: key %x: sum %08x at append, %08x after reopen, %08x at the replica",
				seed, key[:3], want.Sum, reopened[key].Sum, replica[key].Sum)
		}
	}
	if summaryOf(t, a2) != summaryOf(t, b) {
		t.Errorf("seed %d: writer and replica fingerprints disagree", seed)
	}
	if moved := append(pull(t, b, a2), pull(t, a2, b)...); len(moved) != 0 {
		t.Errorf("seed %d: converged stores still move%s", seed, keysOf(moved))
	}
}

// replaySegment's contract on the header, the one place a layout is told
// from a torn write.
func TestReplaySegmentHeader(t *testing.T) {
	full, _ := buildTail(t, 1)
	for name, tc := range map[string]struct {
		data    []byte
		valid   int64
		version bool
	}{
		"empty":          {nil, 0, false},
		"torn header":    {[]byte("RVLS"), 0, false},
		"header only":    {segmentHeader, segmentHeaderLen, false},
		"one record":     {full, int64(len(full)), false},
		"unknown future": {[]byte("RVLS\x7f"), 0, true},
		"foreign bytes":  {[]byte("hello, world"), 0, true},
		"foreign short":  {[]byte("hi"), 0, true},
	} {
		_, valid, err := replaySegment(bytes.NewReader(tc.data), int64(len(tc.data)), func(frame, int64, bool, []byte) {})
		if errors.Is(err, errVersion) != tc.version || (err != nil && !tc.version) || valid != tc.valid {
			t.Errorf("%s: valid %d err %v, want valid %d version error %v", name, valid, err, tc.valid, tc.version)
		}
	}
	if _, _, err := replaySegment(io.MultiReader(bytes.NewReader(full), errReader{}), int64(len(full))+1, func(frame, int64, bool, []byte) {}); err == nil || errors.Is(err, errVersion) {
		t.Errorf("an I/O failure mid-segment came back as %v", err)
	}
}

// errReader fails every read with a real I/O error.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("disk on fire") }
