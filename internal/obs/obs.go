// Package obs is the authority's operator plane: a dependency-free
// observability layer over the service's lock-free Stats snapshot.
//
// The service layer already maintains every number an operator needs —
// request/cache/failure counters, a log2 latency histogram with
// percentile estimates, per-shard cache gauges, durable-store counters,
// per-peer federation rejection buckets — but until this package the only
// way to read them was a bespoke TCP message and a one-shot CLI print.
// obs turns that snapshot into the three surfaces real operations expect:
//
//   - WriteMetrics renders the full Stats tree in Prometheus text
//     exposition format (stable metric names, HELP/TYPE lines, labels for
//     peer/cause/shard, the log2 histogram as a native Prometheus
//     histogram with cumulative `le` buckets);
//   - WriteText is the human rendering the CLI `stats` subcommand and the
//     verifier's shutdown report share, and DiffStats turns two snapshots
//     into the rates (req/s, hit ratio, rejections/s) a live `top`-style
//     watch prints;
//   - Server is a separate HTTP admin listener serving /metrics,
//     /healthz (process liveness), /readyz (readiness gated on a
//     Readiness latch) and net/http/pprof, so profiles are one curl away
//     and a load balancer can keep a cold authority out of rotation.
//
// Everything here reads snapshots at probe cadence; nothing in this
// package is ever on the verification hot path.
package obs

import (
	"sort"
	"strings"
	"sync"
)

// Canonical readiness gate names used by cmd/authority. They are plain
// strings — a Readiness accepts any names — but sharing the constants
// keeps dashboards and the README's documentation in one vocabulary.
const (
	// GateWarmStart is held open until the durable log has been replayed
	// into the cache (service.New returning): a restarted authority must
	// not take traffic while its cache is cold.
	GateWarmStart = "warm-start"
	// GateFirstSync is held open until the first anti-entropy round with
	// at least one successful peer exchange: an authority that was down
	// must not take traffic while its verdict log is behind its peers.
	GateFirstSync = "first-sync"
)

// Readiness is a monotone latch over a fixed set of named gates. Every
// gate starts pending; Mark flips one to done and nothing ever flips it
// back, so Ready is monotone — it becomes true exactly once, when the
// last gate is marked, and stays true. Safe for concurrent use.
type Readiness struct {
	mu    sync.Mutex
	order []string // declaration order, for stable rendering
	done  map[string]bool
}

// NewReadiness declares the gates that must all be marked before the
// latch reports ready. With no gates the latch is born ready (the
// degenerate case of an authority with nothing to wait for). Duplicate
// names collapse into one gate.
func NewReadiness(gates ...string) *Readiness {
	r := &Readiness{done: make(map[string]bool, len(gates))}
	for _, g := range gates {
		if _, dup := r.done[g]; !dup {
			r.order = append(r.order, g)
			r.done[g] = false
		}
	}
	return r
}

// Mark flips one gate to done. Marking an already-done gate is a no-op
// (callers may signal on every round, not just the first); marking a gate
// that was never declared is also a no-op — the latch's contract is the
// declared set, and a stray name must not widen or wedge it.
func (r *Readiness) Mark(gate string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, declared := r.done[gate]; declared {
		r.done[gate] = true
	}
}

// Ready reports whether every declared gate has been marked.
func (r *Readiness) Ready() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, done := range r.done {
		if !done {
			return false
		}
	}
	return true
}

// Pending lists the gates not yet marked, in declaration order — the
// /readyz body an operator reads to learn *why* an authority is out of
// rotation.
func (r *Readiness) Pending() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, g := range r.order {
		if !r.done[g] {
			out = append(out, g)
		}
	}
	return out
}

// snapshot returns the gate states without holding the lock during
// rendering.
func (r *Readiness) snapshot() (gates []string, done map[string]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gates = append([]string(nil), r.order...)
	done = make(map[string]bool, len(r.done))
	for g, d := range r.done {
		done[g] = d
	}
	return gates, done
}

// sortedKeys returns a map's keys in sorted order: metric renderings must
// be deterministic, and Go map iteration is not.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// joinOr renders a list as "a, b, c" with a fallback for the empty case.
func joinOr(items []string, empty string) string {
	if len(items) == 0 {
		return empty
	}
	return strings.Join(items, ", ")
}
