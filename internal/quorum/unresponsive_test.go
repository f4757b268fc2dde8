package quorum

import (
	"context"
	"errors"
	"testing"
	"time"

	"rationality/internal/reputation"
	"rationality/internal/transport"
)

// slowClient never answers: every call blocks until its context expires,
// exactly how a stalled or partitioned verifier looks on the wire.
type slowClient struct{}

func (slowClient) Call(ctx context.Context, _ transport.Message) (transport.Message, error) {
	<-ctx.Done()
	return transport.Message{}, ctx.Err()
}
func (slowClient) Close() error { return nil }

// A member that repeatedly runs out the per-member timeout is charged as
// unresponsive — bounded, half-weight decay toward the floor, never the
// free abstention a dead-but-blameless member gets on caller cancel.
func TestQuorumChargesUnresponsiveMember(t *testing.T) {
	honest := newPersistedService(t, "honest")
	registry := reputation.NewRegistry()
	q, err := New(Config{
		Members: []Member{
			{ID: "honest", Client: transport.DialInProc(honest)},
			{ID: "stalled", Client: slowClient{}},
		},
		Registry:    registry,
		CallTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		res, err := q.VerifyAnnouncement(ctx, pdAnnouncement(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Abstained) != 1 || res.Abstained[0] != "stalled" {
			t.Fatalf("round %d abstained = %v, want [stalled]", i, res.Abstained)
		}
	}
	if got := reported(registry, "stalled", reputation.Unresponsive); got != rounds {
		t.Fatalf("Unresponsive count = %d, want %d", got, rounds)
	}
	// The decay is bounded: past the cap the reputation floors at 0.2 —
	// degraded below consultation thresholds, but above where a proven
	// liar lands. Slowness is not evidence of lying.
	floor := reputation.Score{Unresponsive: reputation.UnresponsiveCap}.Reputation()
	if got := registry.Reputation("stalled"); got != floor {
		t.Fatalf("reputation after %d timeouts = %f, want floor %f", rounds, got, floor)
	}
	unresponsiveEvents := 0
	for _, ev := range registry.Events() {
		if ev.Party == "stalled" && ev.Kind == reputation.Unresponsive {
			unresponsiveEvents++
		}
	}
	if unresponsiveEvents != rounds {
		t.Fatalf("recorded %d unresponsive events, want %d", unresponsiveEvents, rounds)
	}
}

// Chaos-injected slowness looks the same as a stalled member: the delay
// outlives the per-member timeout, the member abstains, and the timeout
// is charged against it.
func TestQuorumChargesChaosDelayedMember(t *testing.T) {
	honest := newPersistedService(t, "honest")
	flaky := newPersistedService(t, "flaky")
	registry := reputation.NewRegistry()
	q, err := New(Config{
		Members: []Member{
			{ID: "honest", Client: transport.DialInProc(honest)},
			{ID: "flaky", Client: transport.Chaos(transport.DialInProc(flaky), transport.ChaosConfig{
				Seed:     7,
				Delay:    1, // every call stalled...
				DelayMin: time.Second,
				DelayMax: 2 * time.Second, // ...well past the member timeout
			})},
		},
		Registry:    registry,
		CallTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.VerifyAnnouncement(context.Background(), pdAnnouncement(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("result = %+v, want acceptance from the honest member", res)
	}
	if len(res.Abstained) != 1 || res.Abstained[0] != "flaky" {
		t.Fatalf("abstained = %v, want [flaky]", res.Abstained)
	}
	if got := reported(registry, "flaky", reputation.Unresponsive); got != 1 {
		t.Fatalf("Unresponsive count = %d, want 1", got)
	}
}

// When the caller's own deadline expires, every member "times out" — that
// proves nothing about any of them, so nothing is charged.
func TestQuorumCallerCancelChargesNobody(t *testing.T) {
	registry := reputation.NewRegistry()
	q, err := New(Config{
		Members:     []Member{{ID: "stalled", Client: slowClient{}}},
		Registry:    registry,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := q.VerifyAnnouncement(ctx, pdAnnouncement(t)); !errors.Is(err, ErrAllAbstained) {
		t.Fatalf("err = %v, want ErrAllAbstained", err)
	}
	if got := reported(registry, "stalled", reputation.Unresponsive); got != 0 {
		t.Fatalf("caller cancel charged the member %d times; silence under a dead caller proves nothing", got)
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
