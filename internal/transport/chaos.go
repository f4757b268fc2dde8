package transport

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedDrop is the error a ChaosClient returns for a call it chose
// to drop. Callers under test can distinguish injected loss from real
// transport failures.
var ErrInjectedDrop = errors.New("transport: chaos: injected drop")

// ChaosConfig parameterizes a ChaosClient. Each rate is an independent
// probability in [0, 1] drawn per call; a zero config injects nothing
// and the wrapper is a transparent passthrough.
type ChaosConfig struct {
	// Seed makes the fault sequence deterministic: two ChaosClients with
	// the same seed and the same call sequence inject the same faults in
	// the same order, so a failing chaos test replays exactly.
	Seed int64
	// Drop is the probability a call is swallowed: the inner client is
	// never invoked and Call returns ErrInjectedDrop.
	Drop float64
	// Delay is the probability a call is stalled before delivery, by a
	// duration drawn uniformly from [DelayMin, DelayMax]. The stall
	// respects context cancellation, so a delayed call against a short
	// deadline surfaces as a timeout — exactly how a slow peer looks.
	Delay    float64
	DelayMin time.Duration
	DelayMax time.Duration
	// Duplicate is the probability the request is delivered twice: the
	// inner client is called again with the same request and the second
	// reply is discarded. Exercises receiver idempotency.
	Duplicate float64
	// Garble is the probability the response payload is corrupted (one
	// byte XORed) before being returned. Exercises checksum/signature
	// verification downstream.
	Garble float64
}

// ChaosClient wraps a Client and injects seeded, deterministic faults:
// drops, delays, duplicates, and payload corruption. It exists for
// fault-injection tests — production federations meet flaky links; the
// test suite should too, reproducibly.
type ChaosClient struct {
	inner Client
	cfg   ChaosConfig

	mu  sync.Mutex
	rng *rand.Rand

	calls, drops, delays, dupes, garbles atomic.Uint64
}

// Chaos wraps inner with fault injection per cfg.
func Chaos(inner Client, cfg ChaosConfig) *ChaosClient {
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMax = cfg.DelayMin
	}
	return &ChaosClient{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// callFaults is the fault plan for one call, drawn under the lock in a
// fixed order so the sequence depends only on the seed and call count,
// never on goroutine timing.
type callFaults struct {
	drop      bool
	delay     time.Duration
	duplicate bool
	garbleAt  int // -1: no garble; else index hint into the payload
}

// plan draws one call's faults.
func (c *ChaosClient) plan() callFaults {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := callFaults{garbleAt: -1}
	if c.rng.Float64() < c.cfg.Drop {
		f.drop = true
	}
	if c.rng.Float64() < c.cfg.Delay {
		span := c.cfg.DelayMax - c.cfg.DelayMin
		f.delay = c.cfg.DelayMin
		if span > 0 {
			f.delay += time.Duration(c.rng.Int63n(int64(span) + 1))
		}
	}
	if c.rng.Float64() < c.cfg.Duplicate {
		f.duplicate = true
	}
	if c.rng.Float64() < c.cfg.Garble {
		f.garbleAt = c.rng.Intn(1 << 16)
	}
	return f
}

// Call injects this call's planned faults around the inner client.
func (c *ChaosClient) Call(ctx context.Context, req Message) (Message, error) {
	c.calls.Add(1)
	f := c.plan()
	if f.delay > 0 {
		c.delays.Add(1)
		t := time.NewTimer(f.delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return Message{}, ctx.Err()
		}
	}
	if f.drop {
		c.drops.Add(1)
		return Message{}, ErrInjectedDrop
	}
	resp, err := c.inner.Call(ctx, req)
	if f.duplicate {
		c.dupes.Add(1)
		// Redeliver and discard: the receiver must tolerate replays.
		if dup, dupErr := c.inner.Call(ctx, req); dupErr == nil {
			_ = dup
		}
	}
	if err == nil && f.garbleAt >= 0 && len(resp.Payload) > 0 {
		c.garbles.Add(1)
		garbled := append([]byte(nil), resp.Payload...)
		garbled[f.garbleAt%len(garbled)] ^= 0xA5
		resp.Payload = garbled
	}
	return resp, err
}

// Close closes the inner client.
func (c *ChaosClient) Close() error { return c.inner.Close() }
