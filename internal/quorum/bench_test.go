package quorum

import (
	"context"
	"fmt"
	"testing"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// BenchmarkQuorumVerify is the fan-out baseline: one request dispatched
// to three in-process verification services concurrently, votes weighted
// and recorded. After the first iteration every member answers from its
// verdict cache, so the number is the quorum machinery — fan-out
// goroutines, collection, weighted vote, reputation recording — plus one
// wire round trip per member (codec and serve loop over an in-memory
// pipe; no kernel socket), without procedure cost.
func BenchmarkQuorumVerify(b *testing.B) {
	for _, members := range []int{3, 5} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			panel := make([]Member, members)
			for i := range panel {
				svc, err := service.New(service.Config{ID: fmt.Sprintf("v%d", i)})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				panel[i] = Member{ID: fmt.Sprintf("v%d", i), Client: transport.DialInProc(svc)}
			}
			q, err := New(Config{Members: panel, Registry: reputation.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			ann := pdAnnouncement(b)
			ctx := context.Background()
			req := core.VerifyRequest{Format: ann.Format, Game: ann.Game, Advice: ann.Advice, Proof: ann.Proof}
			if _, err := q.Verify(ctx, req); err != nil {
				b.Fatal(err) // warm every member's cache
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := q.Verify(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Accepted {
					b.Fatal("quorum rejected the honest benchmark proof")
				}
			}
		})
	}
}

// BenchmarkCertificateVerify is the offline client's hot path: checking
// an assembled quorum certificate against the known panel keyset — one
// digest plus one Ed25519 verification per co-signature, no network, no
// live panel. The certificate is assembled once outside the timed loop.
func BenchmarkCertificateVerify(b *testing.B) {
	for _, members := range []int{3, 5} {
		b.Run(fmt.Sprintf("panel=%d", members), func(b *testing.B) {
			keyset := make([]identity.PartyID, members)
			panel := make([]Member, members)
			for i := range panel {
				key, err := identity.NewKeyPair()
				if err != nil {
					b.Fatal(err)
				}
				svc, err := service.New(service.Config{
					ID: fmt.Sprintf("v%d", i), PersistPath: b.TempDir(), Key: key,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				keyset[i] = key.ID()
				panel[i] = Member{ID: fmt.Sprintf("v%d", i), Client: transport.DialInProc(svc)}
			}
			certifier, err := NewCertifier(CertifierConfig{Members: panel, Keyset: keyset})
			if err != nil {
				b.Fatal(err)
			}
			ann := pdAnnouncement(b)
			req := core.VerifyRequest{Format: ann.Format, Game: ann.Game, Advice: ann.Advice, Proof: ann.Proof}
			cert, err := certifier.Certify(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cert.Verify(keyset, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
