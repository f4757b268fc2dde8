package store

import (
	"bytes"
	"testing"
	"time"
)

// TestCertifiedRecordRoundTrip persists a record with a certificate
// column and replays it across a restart: the certificate must survive
// byte for byte, and uncertified records must keep an empty column.
func TestCertifiedRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cert := []byte(`{"key":"ab","verdict":{"accepted":true},"panel":"Bw==","sigs":[]}`)
	if err := s.AppendCertified(testKey(0), testVerdict(0), testRequest(0), cert); err != nil {
		t.Fatalf("certified append refused: %v", err)
	}
	if !s.Append(testKey(1), testVerdict(1), testRequest(1)) {
		t.Fatal("plain append refused")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, records, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2", len(records))
	}
	byKey := map[[32]byte]Live{}
	for _, r := range records {
		byKey[r.Key] = r
	}
	if got := byKey[testKey(0)].Cert; !bytes.Equal(got, cert) {
		t.Fatalf("certificate column round-trip: got %q, want %q", got, cert)
	}
	if got := byKey[testKey(1)].Cert; got != nil {
		t.Fatalf("uncertified record grew a cert column: %q", got)
	}
}

// TestCertificateTravelsAntiEntropy proves certificates are replicated
// data: a record that gains a certificate reads as new content (the
// record sum covers the cert column), so Delta re-sends it to a peer that
// already converged on the bare verdict, and Ingest carries the
// certificate into the receiving store.
func TestCertificateTravelsAntiEntropy(t *testing.T) {
	a, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Both sides hold the identical bare verdict.
	if !a.Append(testKey(0), testVerdict(0), testRequest(0)) {
		t.Fatal("append refused")
	}
	man := manifestOf(t, a)
	if _, _, err := b.Ingest(deltaOf(t, a, nil)); err != nil {
		t.Fatal(err)
	}
	// Converged: a's delta against b's manifest is empty.
	bman := manifestOf(t, b)
	if d := deltaOf(t, a, bman); len(d) != 0 {
		t.Fatalf("converged stores still transfer: %d records", len(d))
	}

	// a's record gains a certificate: new content, so it travels.
	cert := []byte(`{"key":"ef","sigs":[]}`)
	if err := a.AppendCertified(testKey(0), testVerdict(0), testRequest(0), cert); err != nil {
		t.Fatalf("certified re-append refused: %v", err)
	}
	if manifestOf(t, a)[testKey(0)].Sum == man[testKey(0)].Sum {
		t.Fatal("record sum unchanged by the certificate — anti-entropy would never ship it")
	}
	d := deltaOf(t, a, bman)
	if len(d) != 1 || !bytes.Equal(d[0].Cert, cert) {
		t.Fatalf("certified record not in delta: %+v", d)
	}
	applied, _, err := b.Ingest(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || !bytes.Equal(applied[0].Cert, cert) {
		t.Fatalf("certificate lost in ingest: %+v", applied)
	}

	// And the wire framing preserves it.
	blob, err := EncodeRecords(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRecords(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !bytes.Equal(back[0].Cert, cert) {
		t.Fatalf("certificate lost on the wire: %+v", back)
	}
}

// bench/README finding 7: a panel member that co-signed a verdict holds the
// bare record at a stamp from its own counter, and when that counter is
// ahead of the certificate holder's, newest-stamp-wins alone keeps the
// certificate out for good. The merge rule ranks certified above bare at
// equal polarity whatever the stamps, re-stamps the upgrade locally so a
// restart keeps it, and — the same rule on the sending side — never ships
// the newer bare copy back over the certificate.
func TestCertificateReachesPeerWhoseClockIsAhead(t *testing.T) {
	a, _ := mustOpen(t, t.TempDir(), Options{})
	cdir := t.TempDir()
	c, _ := mustOpen(t, cdir, Options{})
	key := testKey(0)
	// C's counter runs ahead: twenty other records, then the bare verdict.
	for i := 1; i <= 20; i++ {
		c.Append(testKey(i), testVerdict(i), nil)
	}
	c.Append(key, testVerdict(0), testRequest(0))
	// A holds the bare verdict and then its certificate, at stamps 1 and 2.
	cert := []byte(`{"key":"ef","sigs":["a","b","c"]}`)
	a.Append(key, testVerdict(0), testRequest(0))
	if err := a.AppendCertified(key, testVerdict(0), testRequest(0), cert); err != nil {
		t.Fatal(err)
	}
	bare := manifestOf(t, c)[key]
	if held := manifestOf(t, a)[key]; !held.Certified || held.Stamp >= bare.Stamp || bare.Certified {
		t.Fatalf("test premise: a holds %+v, c holds %+v", held, bare)
	}

	applied := pull(t, c, a)
	if len(applied) != 1 || applied[0].Key != key || !bytes.Equal(applied[0].Cert, cert) {
		t.Fatalf("certificate did not reach the member whose clock is ahead: applied%s", keysOf(applied))
	}
	upgraded := manifestOf(t, c)[key]
	if !upgraded.Certified || upgraded.Stamp <= bare.Stamp {
		t.Fatalf("upgrade not re-stamped past the bare copy: %+v (bare was %+v)", upgraded, bare)
	}

	// A catches up on C's other records; C's newer stamp on the shared key
	// must not ride along over A's certificate.
	if moved := pull(t, a, c); len(moved) != 20 {
		t.Fatalf("a pulled %d records from c, want its 20 others:%s", len(moved), keysOf(moved))
	}
	// No ping-pong: two further rounds, both directions, move nothing.
	for round := 0; round < 2; round++ {
		if moved := append(pull(t, a, c), pull(t, c, a)...); len(moved) != 0 {
			t.Fatalf("round %d after the upgrade moved%s", round, keysOf(moved))
		}
	}
	if moved := reconcile(t, c, a, "after upgrade"); len(moved) != 0 {
		t.Fatalf("scoped round after the upgrade moved%s", keysOf(moved))
	}
	if !manifestOf(t, a)[key].Certified {
		t.Fatal("a lost its certificate")
	}

	// Recovery's newest-stamp-wins replay keeps the upgrade.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpen(t, cdir, Options{})
	for _, r := range recs {
		if r.Key == key {
			if !bytes.Equal(r.Cert, cert) {
				t.Fatalf("restart dropped the certificate: %+v", r)
			}
			return
		}
	}
	t.Fatal("certified record missing after restart")
}

// The merge rule falls back to stamps when a certificate contradicts the
// receiver's copy: a certified record never displaces a newer verdict of
// the opposite polarity.
func TestCertificateDoesNotOverrideOppositePolarity(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	key := testKey(0)
	if _, _, err := s.Ingest([]Record{{Key: key, Stamp: 9, Verdict: testVerdict(1)}}); err != nil { // rejected
		t.Fatal(err)
	}
	in := []Record{{Key: key, Stamp: 5, Verdict: testVerdict(0), Cert: []byte(`{"sigs":[]}`)}} // accepted, certified, older
	if applied, _, err := s.Ingest(in); err != nil || len(applied) != 0 {
		t.Fatalf("older certificate of the opposite polarity applied: %+v %v", applied, err)
	}
	in[0].Stamp = 10
	if applied, _, err := s.Ingest(in); err != nil || len(applied) != 1 {
		t.Fatalf("newer record must still win on stamps: %+v %v", applied, err)
	}
}

// TestCertifiedAppendWaitsForTheFlusher: with the flusher parked inside a
// command and the one-slot queue full, a plain Append drops while a
// certified append waits its turn and lands — and replays after a restart.
// Once the tail is closed under the flusher, a certified append reports the
// failure instead of acknowledging a certificate the log never wrote.
func TestCertifiedAppendWaitsForTheFlusher(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	go s.do(func() { close(parked); <-release })
	<-parked
	if !s.Append(testKey(1), testVerdict(1), nil) {
		t.Fatal("the one queue slot refused a record")
	}
	if s.Append(testKey(2), testVerdict(2), nil) {
		t.Fatal("a plain append into the full queue was accepted")
	}
	cert := []byte(`{"key":"ab","sigs":[]}`)
	done := make(chan error, 1)
	go func() { done <- s.AppendCertified(testKey(0), testVerdict(0), testRequest(0), cert) }()
	select {
	case err := <-done:
		t.Fatalf("the certified append returned (%v) while the flusher was parked", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("certified append: %v", err)
	}
	if st := s.Stats(); st.Dropped != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want the one plain append dropped and nothing failed", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, records, err := Open(dir, Options{QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	byKey := map[[32]byte]Live{}
	for _, r := range records {
		byKey[r.Key] = r
	}
	if len(records) != 2 || !bytes.Equal(byKey[testKey(0)].Cert, cert) {
		t.Fatalf("replayed %d records, certificate %q; want 2 records and %q", len(records), byKey[testKey(0)].Cert, cert)
	}

	if err := s.do(func() { s.tail.Close() }); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCertified(testKey(3), testVerdict(3), nil, cert); err == nil {
		t.Fatal("a certified append the closed tail could not write was acknowledged")
	}
	if st := s.Stats(); st.Failed != 1 || st.Persisted != 0 {
		t.Fatalf("stats = %+v, want the one write counted failed", st)
	}
}
