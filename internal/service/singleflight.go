package service

import (
	"context"
	"errors"
	"sync"

	"rationality/internal/identity"
)

// flightGroup deduplicates concurrent verifications of the same content
// address: the first caller (the leader) runs the procedure, every
// concurrent duplicate waits for and shares the leader's cache entry —
// immutable bytes, so sharing needs no copy. A
// minimal re-implementation of golang.org/x/sync/singleflight, kept local
// so the module stays dependency-free, keyed by the raw digest.
type flightGroup struct {
	mu    sync.Mutex
	calls map[identity.Hash]*flightCall
}

type flightCall struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[identity.Hash]*flightCall)}
}

// Do runs fn for key, or waits for an in-flight identical call. The second
// return reports whether the result was shared with (produced by) another
// caller rather than computed by this one. Followers honor their own ctx
// while waiting, and a leader that aborts on its own context does not
// poison them: a follower with a live context retries and becomes the new
// leader. A follower holds nothing while it waits — in particular no
// procedure slot — so waiting on a leader can never starve that leader.
func (g *flightGroup) Do(ctx context.Context, key identity.Hash, fn func() (*cacheEntry, error)) (*cacheEntry, bool, error) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
			if isContextError(c.err) && ctx.Err() == nil {
				continue // the leader gave up on its own ctx, not ours
			}
			return c.entry, true, c.err
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		c.entry, c.err = fn()
		close(c.done)

		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		return c.entry, false, c.err
	}
}

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
