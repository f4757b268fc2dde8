package transport

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// echoClient is a deterministic inner client that counts deliveries and
// echoes the request type back with a fixed payload.
type echoClient struct {
	delivered atomic.Uint64
	closed    atomic.Bool
}

func (e *echoClient) Call(ctx context.Context, req Message) (Message, error) {
	e.delivered.Add(1)
	return Message{Type: req.Type, Payload: json.RawMessage(`{"ok":true,"n":12345}`)}, nil
}
func (e *echoClient) Close() error { e.closed.Store(true); return nil }

func chaosCall(t *testing.T, c Client) (Message, error) {
	t.Helper()
	return c.Call(context.Background(), Message{Type: "ping"})
}

// A zero config is a transparent passthrough: no faults, no mutation.
func TestChaosPassthrough(t *testing.T) {
	inner := &echoClient{}
	c := Chaos(inner, ChaosConfig{Seed: 1})
	for i := 0; i < 50; i++ {
		resp, err := chaosCall(t, c)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp.Payload) != `{"ok":true,"n":12345}` {
			t.Fatalf("call %d: payload mutated: %s", i, resp.Payload)
		}
	}
	st := c.stats()
	if st.Calls != 50 || st.Drops+st.Delays+st.Duplicates+st.Garbles != 0 {
		t.Errorf("passthrough injected faults: %+v", st)
	}
	if inner.delivered.Load() != 50 {
		t.Errorf("delivered=%d, want 50", inner.delivered.Load())
	}
	if err := c.Close(); err != nil || !inner.closed.Load() {
		t.Error("Close must reach the inner client")
	}
}

// Drop=1: every call is swallowed before the inner client sees it.
func TestChaosDrop(t *testing.T) {
	inner := &echoClient{}
	c := Chaos(inner, ChaosConfig{Seed: 7, Drop: 1})
	for i := 0; i < 10; i++ {
		if _, err := chaosCall(t, c); !errors.Is(err, ErrInjectedDrop) {
			t.Fatalf("call %d: err=%v, want ErrInjectedDrop", i, err)
		}
	}
	if inner.delivered.Load() != 0 {
		t.Errorf("dropped calls reached the inner client: %d", inner.delivered.Load())
	}
	if st := c.stats(); st.Drops != 10 {
		t.Errorf("stats=%+v, want 10 drops", st)
	}
}

// Delay=1 stalls the call; a tighter context deadline wins, so a delayed
// peer looks exactly like a slow one to the caller.
func TestChaosDelayRespectsContext(t *testing.T) {
	inner := &echoClient{}
	c := Chaos(inner, ChaosConfig{Seed: 3, Delay: 1, DelayMin: 50 * time.Millisecond, DelayMax: 50 * time.Millisecond})

	start := time.Now()
	if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("delayed call returned after %s, want >= 50ms", d)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, Message{Type: "ping"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err=%v, want DeadlineExceeded", err)
	}
	if inner.delivered.Load() != 1 {
		t.Errorf("delivered=%d: the timed-out call must not reach the inner client", inner.delivered.Load())
	}
}

// Duplicate=1: the receiver sees every request twice; the caller sees
// one reply.
func TestChaosDuplicate(t *testing.T) {
	inner := &echoClient{}
	c := Chaos(inner, ChaosConfig{Seed: 5, Duplicate: 1})
	for i := 0; i < 10; i++ {
		if _, err := chaosCall(t, c); err != nil {
			t.Fatal(err)
		}
	}
	if inner.delivered.Load() != 20 {
		t.Errorf("delivered=%d, want 20 (each call duplicated)", inner.delivered.Load())
	}
	if st := c.stats(); st.Duplicates != 10 {
		t.Errorf("stats=%+v, want 10 duplicates", st)
	}
}

// Garble=1: the response payload comes back corrupted — and therefore
// unparseable or signature-failing downstream — while the inner client's
// reply was untouched.
func TestChaosGarble(t *testing.T) {
	inner := &echoClient{}
	c := Chaos(inner, ChaosConfig{Seed: 9, Garble: 1})
	garbled := 0
	for i := 0; i < 10; i++ {
		resp, err := chaosCall(t, c)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Payload) != `{"ok":true,"n":12345}` {
			garbled++
		}
	}
	if garbled != 10 {
		t.Errorf("garbled %d/10 payloads, want all", garbled)
	}
	if st := c.stats(); st.Garbles != 10 {
		t.Errorf("stats=%+v", st)
	}
}

// Same seed, same call sequence → same fault plan, call for call. The
// whole point of seeding: a failing chaos test replays exactly.
func TestChaosSeededDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, Drop: 0.3, Duplicate: 0.3, Garble: 0.3}
	run := func() []string {
		inner := &echoClient{}
		c := Chaos(inner, cfg)
		var trace []string
		for i := 0; i < 200; i++ {
			resp, err := chaosCall(t, c)
			switch {
			case errors.Is(err, ErrInjectedDrop):
				trace = append(trace, "drop")
			case err != nil:
				t.Fatal(err)
			case string(resp.Payload) != `{"ok":true,"n":12345}`:
				trace = append(trace, "garble")
			default:
				trace = append(trace, "ok")
			}
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged: %s vs %s", i, a[i], b[i])
		}
	}

	// A different seed yields a different plan (overwhelmingly likely
	// over 200 draws at these rates).
	cfg.Seed = 43
	diff := run()
	same := true
	for i := range a {
		if a[i] != diff[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

// chaosStats counts the faults a ChaosClient has injected.
type chaosStats struct {
	Calls, Drops, Delays, Duplicates, Garbles uint64
}

func (c *ChaosClient) stats() chaosStats {
	return chaosStats{
		Calls:      c.calls.Load(),
		Drops:      c.drops.Load(),
		Delays:     c.delays.Load(),
		Duplicates: c.dupes.Load(),
		Garbles:    c.garbles.Load(),
	}
}
