package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/transport"
)

// TestStreamVerifyOverTCP is the end-to-end streaming exchange: a real
// authority behind a TCP listener, StreamVerify as the client, every
// verdict frame delivered before the trailer.
func TestStreamVerifyOverTCP(t *testing.T) {
	proc := &slowProc{format: "slow/v1"}
	s := newTestService(t, Config{Workers: 4, CacheSize: -1})
	s.register(proc)
	srv, err := transport.ListenTCP("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.DialTCP(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const items = 500
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = annNumbered("slow/v1", i)
	}
	seen := make([]bool, items)
	frames := 0
	tr, err := StreamVerify(context.Background(), c, anns, func(sv StreamVerdict) error {
		if sv.Index < 0 || sv.Index >= items || seen[sv.Index] {
			t.Errorf("bad or duplicate frame index %d", sv.Index)
		} else {
			seen[sv.Index] = true
		}
		frames++
		return nil
	})
	if err != nil {
		t.Fatalf("StreamVerify: %v", err)
	}
	if frames != items || tr.Delivered != items || tr.Accepted != items || tr.Truncated {
		t.Fatalf("frames=%d trailer=%+v, want %d clean verdicts", frames, tr, items)
	}
	if tr.FirstVerdict <= 0 || tr.Elapsed < tr.FirstVerdict {
		t.Fatalf("trailer timings incoherent: %+v", tr)
	}
	// The streaming exchange shares the pooled connection politely: a
	// unary stats call works right after.
	req, _ := transport.NewMessage(MsgServiceStats, nil)
	if _, err := c.Call(context.Background(), req); err != nil {
		t.Fatalf("unary call after stream: %v", err)
	}
}

// TestStreamVerifyCertificateIfCached: an item whose verdict carries a
// stored quorum certificate streams that certificate in its frame —
// certificate-if-cached, no follow-up cert-get needed.
func TestStreamVerifyCertificateIfCached(t *testing.T) {
	s := newTestService(t, Config{})
	ann := pdAnnouncement(t)
	key := identity.DigestBytes([]byte(ann.Format), ann.Game, ann.Advice, ann.Proof)
	cert := &core.Certificate{
		Key:     key.String(),
		Verdict: core.Verdict{Accepted: true, Format: ann.Format},
		Panel:   []byte{0x01},
		Sigs:    [][]byte{[]byte("sig")},
	}
	// No panel keyset configured: the certificate is admitted unverified,
	// exactly like a record carrying one.
	if err := s.StoreCertificate(cert); err != nil {
		t.Fatalf("StoreCertificate: %v", err)
	}

	var got *core.Certificate
	tr, err := s.VerifyStream(context.Background(), []core.Announcement{ann}, func(sv StreamVerdict) error {
		got = sv.Certificate
		return nil
	})
	if err != nil {
		t.Fatalf("VerifyStream: %v", err)
	}
	if tr.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", tr.Delivered)
	}
	if got == nil {
		t.Fatal("frame carried no certificate for a certified verdict")
	}
	if got.Key != key.String() || len(got.Sigs) != 1 {
		t.Fatalf("streamed certificate = %+v, want the stored one", got)
	}
	// An uncertified item streams without one.
	other := annNumbered(ann.Format, 12345)
	got = nil
	if _, err := s.VerifyStream(context.Background(), []core.Announcement{other}, func(sv StreamVerdict) error {
		got = sv.Certificate
		return nil
	}); err != nil {
		t.Fatalf("VerifyStream: %v", err)
	}
	if got != nil {
		t.Fatalf("uncertified item streamed a certificate: %+v", got)
	}
}

// TestStreamVerifyOverTCPClientCancel cancels the streaming client
// mid-exchange: StreamVerify fails fast, and the server stops burning
// workers on the abandoned batch instead of verifying all of it.
func TestStreamVerifyOverTCPClientCancel(t *testing.T) {
	proc := &slowProc{format: "slow/v1", delay: 2 * time.Millisecond}
	s := newTestService(t, Config{Workers: 2, CacheSize: -1})
	s.register(proc)
	srv, err := transport.ListenTCP("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.DialTCP(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const items = 2000
	anns := make([]core.Announcement, items)
	for i := range anns {
		anns[i] = annNumbered("slow/v1", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames := 0
	_, err = StreamVerify(ctx, c, anns, func(StreamVerdict) error {
		frames++
		if frames == 3 {
			cancel()
		}
		return nil
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamVerify after cancel = %v, want context.Canceled", err)
	}

	// The server must notice the dead consumer: its emit fails once the
	// connection drops, the stream aborts, and in-flight work drains.
	deadline := time.After(15 * time.Second)
	for {
		st := s.Stats()
		if st.InFlight == 0 && proc.current.Load() == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("server never drained: stats=%+v current=%d", st, proc.current.Load())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if calls := proc.calls.Load(); calls >= items {
		t.Fatalf("server verified all %d items for a consumer that left after 3 frames", calls)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after aborted stream: %v", err)
	}
}
