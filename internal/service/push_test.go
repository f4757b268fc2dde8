package service

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// countServed returns how many requests of one type the cluster's
// listeners have served.
func (c *gossipCluster) countServed(typ string) int {
	n := 0
	for _, got := range c.served() {
		if got == typ {
			n++
		}
	}
	return n
}

// A certificate stored at A is servable at C one push later, byte for byte
// A's, with no round run after the one that opened the clients.
func TestGossipPushServesCertificateAtReplicaWithoutRound(t *testing.T) {
	c := newGossipCluster(t, 3, 2)
	c.step(t)
	a, far := c.nodes[0].svc, c.nodes[2].svc
	key := certifiedOn(t, a, announcementFor("inv", `{"pushed":"certificate"}`))

	waitFor(t, 5*time.Second, "the certificate at C", func() bool {
		_, found, err := far.Certificate(key)
		return err == nil && found
	})
	atA, _, err := a.Certificate(key)
	if err != nil {
		t.Fatal(err)
	}
	atC, _, err := far.Certificate(key)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := core.EncodeCertificate(atA)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := core.EncodeCertificate(atC)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("C serves %s, A %s", gotBytes, wantBytes)
	}
	for _, n := range c.nodes {
		if r := n.g.Stats().Rounds; r != 1 {
			t.Fatalf("%s ran %d rounds, want only the one that opened its clients", n.addr, r)
		}
	}
}

// The push's scope guard: a fresh verdict and an ingested record push
// nothing (every member recomputes the one, and the other came by
// replication); only the certificate stored after them goes out, once to
// each peer and carrying its own record alone.
func TestGossipPushSkipsFreshVerdictsAndIngests(t *testing.T) {
	c := newGossipCluster(t, 3, 2)
	c.step(t)
	a := c.nodes[0]
	verifyDistinct(t, a.svc, "fresh", 1)
	foreign := announcementFor("inv", `{"ingested":1}`)
	rec := store.Record{
		Key:     identity.DigestBytes([]byte(foreign.Format), foreign.Game, foreign.Advice, foreign.Proof),
		Verdict: core.Verdict{Accepted: true, Format: foreign.Format},
		Stamp:   1,
	}
	if n, err := a.svc.Ingest([]store.Record{rec}); err != nil || n != 1 {
		t.Fatalf("Ingest = %d, %v", n, err)
	}
	certifiedOn(t, a.svc, announcementFor("inv", `{"pushed":"only this"}`))

	waitFor(t, 5*time.Second, "the certificate pushed to both peers", func() bool {
		return c.nodes[1].svc.Stats().Ingested > 0 && c.nodes[2].svc.Stats().Ingested > 0
	})
	a.g.Stop() // ends any push still in flight
	if n := c.countServed(MsgGossipPush); n != 2 {
		t.Fatalf("%d gossip-push frames, want 2 (the certificate, once per peer)", n)
	}
	for _, peer := range c.nodes[1:] {
		if got := peer.svc.Stats().Ingested; got != 1 {
			t.Fatalf("%s ingested %d records, want the certified one alone", peer.addr, got)
		}
	}
}

// A push is a delta like any other at the receiver's gate: one whose
// allowlist excludes the pusher refuses it and counts the refusal, and the
// pusher's breaker does not move.
func TestGossipPushRefusedByAllowlist(t *testing.T) {
	keyA, keyB := testKeyPair(t), testKeyPair(t)
	a := newKeyedService(t, "a", keyA)
	b := newKeyedService(t, "b", keyB, testKeyPair(t).ID()) // allows someone else
	g, err := a.StartGossiper(gossip.Config{
		Peers: []string{"b"}, Seed: 1, Logf: t.Logf,
		Dial: func(string) (transport.Client, error) { return transport.DialInProc(b), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	if err := g.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	key := certifiedOn(t, a, announcementFor("inv", `{"pushed":"refused"}`))

	waitFor(t, 5*time.Second, "b to refuse the push", func() bool {
		return b.Stats().Federation.RejectedUnknown == 1
	})
	g.Stop()
	if _, found, _ := b.Certificate(key); found {
		t.Fatal("b holds a certificate its gate refused")
	}
	if p := peerRow(t, g, "b"); p.State != gossip.Healthy || p.ConsecutiveFailures != 0 || p.Failed != 0 {
		t.Fatalf("a refused push moved the breaker: %+v", p)
	}
}

// pushDropper loses every gossip-push, counting it in drops, and passes
// the rest of the traffic through.
type pushDropper struct {
	transport.Client
	drops *atomic.Int64
}

func (c pushDropper) Call(ctx context.Context, req transport.Message) (transport.Message, error) {
	if req.Type == MsgGossipPush {
		c.drops.Add(1)
		return transport.Message{}, transport.ErrInjectedDrop
	}
	return c.Client.Call(ctx, req)
}

// A lost push costs only latency: the next round delivers the record.
func TestGossipPushDroppedConvergesOnNextRound(t *testing.T) {
	keyA, keyB := testKeyPair(t), testKeyPair(t)
	a := newKeyedService(t, "a", keyA, keyB.ID())
	b := newKeyedService(t, "b", keyB, keyA.ID())
	var drops atomic.Int64
	ga, err := a.StartGossiper(gossip.Config{
		Peers: []string{"b"}, Seed: 1, Logf: t.Logf,
		Dial: func(string) (transport.Client, error) {
			return pushDropper{transport.DialInProc(b), &drops}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ga.Stop)
	gb, err := b.StartGossiper(gossip.Config{
		Peers: []string{"a"}, Seed: 2, Logf: t.Logf,
		Dial: func(string) (transport.Client, error) { return transport.DialInProc(a), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gb.Stop)
	ctx := context.Background()
	if err := ga.Round(ctx); err != nil {
		t.Fatal(err)
	}
	key := certifiedOn(t, a, announcementFor("inv", `{"pushed":"lost"}`))
	waitFor(t, 5*time.Second, "the push to be dropped", func() bool { return drops.Load() == 1 })
	if _, found, _ := b.Certificate(key); found {
		t.Fatal("test premise: the dropped push arrived")
	}
	if p := peerRow(t, ga, "b"); p.State != gossip.Healthy || p.Failed != 0 {
		t.Fatalf("a lost push moved the breaker: %+v", p)
	}

	if err := gb.Round(ctx); err != nil { // b's pull is the backstop
		t.Fatal(err)
	}
	if _, found, err := b.Certificate(key); err != nil || !found {
		t.Fatalf("b lacks the certificate after its round (found=%v, %v)", found, err)
	}
}

// A certificate the durable log did not take is refused, not acknowledged:
// nothing is cached, and nothing counts as stored.
func TestStoreCertificateRefusesWhatTheLogDropped(t *testing.T) {
	s := newTestService(t, Config{ID: "a", PersistPath: t.TempDir()})
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	ann := announcementFor("inv", `{"certified":"dropped"}`)
	key := identity.DigestBytes([]byte(ann.Format), ann.Game, ann.Advice, ann.Proof)
	err := s.StoreCertificate(&core.Certificate{
		Key: key.String(), Verdict: core.Verdict{Accepted: true, Format: ann.Format},
		Panel: []byte{0x07}, Sigs: [][]byte{[]byte("a"), []byte("b"), []byte("c")},
	})
	if err == nil {
		t.Fatal("StoreCertificate acknowledged a certificate the closed log dropped")
	}
	if _, found, _ := s.Certificate(key); found {
		t.Fatal("the dropped certificate is served from the cache")
	}
	if n := s.Stats().CertsStored; n != 0 {
		t.Fatalf("CertsStored = %d, want 0", n)
	}
}
