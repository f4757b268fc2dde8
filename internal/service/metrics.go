package service

import (
	"math/bits"
	"sync/atomic"
	"time"

	"rationality/internal/gossip"
	"rationality/internal/store"
)

// latencyBuckets is the size of the fixed log-scale latency histogram:
// bucket i counts requests whose latency in nanoseconds has floor(log2) ==
// i, i.e. bucket boundaries double from 1ns up; bucket 39 (~9.2 minutes)
// and above collapse into the last bucket. Forty buckets cover every
// latency a request could plausibly have while keeping the histogram a
// single cache-friendly array of atomics.
const latencyBuckets = 40

// metrics aggregates the service's operational counters. Everything is
// atomic — counters, gauges, and the latency histogram — so the hot path
// performs no mutex acquisitions at all: begin/end are a handful of
// uncontended atomic adds plus two bounded CAS loops (peak gauge, min/max
// latency) that almost always exit on their first iteration.
type metrics struct {
	requests     atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	deduplicated atomic.Uint64
	ingested     atomic.Uint64
	deltasServed atomic.Uint64
	syncRounds   atomic.Uint64

	// Accountability counters: deltas refused for a quarantined signer,
	// records refused at ingest for contradicting a locally verified
	// verdict, audits run, audit contradictions (proven lies), and audit
	// samples shed by a saturated auditor queue.
	rejectedQuarantined atomic.Uint64
	ingestRefutations   atomic.Uint64
	audits              atomic.Uint64
	auditRefutations    atomic.Uint64
	auditsShed          atomic.Uint64

	// Certificate counters: co-signatures issued by this authority,
	// certificates accepted into the store (locally assembled or ingested),
	// certificates served to offline clients, and certificates refused
	// because they failed verification against the panel keyset.
	certsCosigned atomic.Uint64
	certsStored   atomic.Uint64
	certsServed   atomic.Uint64
	certsRejected atomic.Uint64

	accepted     atomic.Uint64
	rejected     atomic.Uint64
	failures     atomic.Uint64
	inFlight     atomic.Int64
	peakInFlight atomic.Int64

	// streams counts VerifyStream exchanges; ttfv records each stream's
	// time-to-first-verdict — the latency streaming exists to shrink.
	streams atomic.Uint64
	ttfv    latencyRecorder

	lat latencyRecorder
}

// latencyRecorder is one lock-free latency aggregate: count, sum, the
// min/max gauges and the fixed log2 histogram. The request path and the
// stream time-to-first-verdict metric each own one.
type latencyRecorder struct {
	count atomic.Uint64
	total atomic.Int64 // nanoseconds
	min   atomic.Int64 // nanoseconds; 0 = unset
	max   atomic.Int64 // nanoseconds
	hist  [latencyBuckets]atomic.Uint64
}

// observe records one latency sample. Lock-free.
func (r *latencyRecorder) observe(ns int64) {
	if ns < 1 {
		ns = 1 // clamp: 0 is the min gauge's "unset" sentinel
	}
	r.count.Add(1)
	r.total.Add(ns)
	r.hist[latencyBucket(ns)].Add(1)
	for {
		cur := r.min.Load()
		if (cur != 0 && ns >= cur) || r.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := r.max.Load()
		if ns <= cur || r.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// latencyBucket maps an observed latency to its histogram bucket.
func latencyBucket(ns int64) int {
	b := bits.Len64(uint64(ns)) - 1 // floor(log2)
	if b < 0 {
		return 0
	}
	if b >= latencyBuckets {
		return latencyBuckets - 1
	}
	return b
}

// LatencyBuckets is the capacity of the log2 latency histogram: the
// number of buckets a full (untrimmed) LatencySummary.Buckets can carry.
// Renderers that need the histogram's complete range — e.g. the
// Prometheus exposition in internal/obs — iterate bucket indexes up to
// this bound and treat indexes past the trimmed slice as zero counts.
const LatencyBuckets = latencyBuckets

// LatencyBucketBound is the inclusive upper bound of log2 latency bucket
// i: 2^(i+1)-1 nanoseconds. It is the `le` threshold a cumulative
// rendering of LatencySummary.Buckets derives for bucket i.
func LatencyBucketBound(i int) time.Duration { return bucketUpperBound(i) }

// bucketUpperBound is the largest latency bucket i can hold: 2^(i+1)-1 ns.
// Percentile estimates report this bound, so they err on the conservative
// (pessimistic) side by at most one bucket width (a factor of two — the
// resolution a log2 histogram buys).
func bucketUpperBound(i int) time.Duration {
	if i >= 62 {
		return time.Duration(int64(^uint64(0) >> 1))
	}
	return time.Duration(int64(1)<<(i+1) - 1)
}

// begin records an arriving request and returns its start time. Lock-free.
func (m *metrics) begin() time.Time {
	m.requests.Add(1)
	n := m.inFlight.Add(1)
	for {
		peak := m.peakInFlight.Load()
		if n <= peak || m.peakInFlight.CompareAndSwap(peak, n) {
			break
		}
	}
	return time.Now()
}

// end records a completed request and its latency. Lock-free.
func (m *metrics) end(start time.Time) {
	m.inFlight.Add(-1)
	m.lat.observe(time.Since(start).Nanoseconds())
}

// LatencySummary describes the observed request latencies. Percentiles are
// estimated from a fixed log2-bucket histogram: each reported percentile
// is the upper bound of the bucket the rank falls into, so estimates are
// conservative within a factor of two and cost no locking to maintain.
type LatencySummary struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean"`
	// Total is the sum of all observed latencies — what a Prometheus
	// histogram reports as `_sum`, and what Mean is derived from.
	Total time.Duration `json:"total,omitempty"`
	Min   time.Duration `json:"min"`
	Max   time.Duration `json:"max"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	P99   time.Duration `json:"p99"`
	// Buckets is the raw histogram: Buckets[i] counts requests with
	// floor(log2(latency_ns)) == i. Trailing all-zero buckets are trimmed
	// (a summary never ships 40 entries when only the first few are
	// populated); index i keeps its meaning, so renderers that need the
	// full range treat the missing tail as zeros.
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Stats is a point-in-time snapshot of the service's counters, suitable
// for the "service-stats" wire reply and for operator dashboards.
type Stats struct {
	// Requests counts admitted single verifications (batch items
	// included). Refused requests (after Close) count only as Failures,
	// so CacheHits + CacheMisses == Requests always holds.
	Requests uint64 `json:"requests"`
	// CacheHits / CacheMisses partition requests by verdict-cache outcome.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	// Deduplicated counts requests that shared a concurrent identical
	// verification instead of running their own (singleflight followers).
	Deduplicated uint64 `json:"deduplicated"`
	// Ingested counts verdicts absorbed from quorum peers via
	// anti-entropy: they enter the cache (and the durable log) without
	// ever counting as hits or misses — replication is not traffic.
	// DeltasServed counts sync-offer requests answered for peers.
	Ingested     uint64 `json:"ingested"`
	DeltasServed uint64 `json:"deltasServed"`
	// SyncRounds counts completed replication rounds (recorded by the
	// Gossiper via NoteSyncRound; zero on an authority that runs without
	// peers). A stalled counter under a configured -peers loop means the
	// loop itself is stuck, not just the peers.
	SyncRounds uint64 `json:"syncRounds,omitempty"`
	// IngestRefutations counts records refused at ingest because their
	// verdict contradicted one this authority verified locally; Audits
	// counts ingested records the background auditor re-verified, and
	// AuditRefutations the re-verifications that contradicted the peer's
	// verdict — proven lies, each repaired in place and charged to the
	// vouching peer. AuditsShed counts samples dropped by a saturated
	// auditor queue (coverage lost, never correctness).
	IngestRefutations uint64 `json:"ingestRefutations,omitempty"`
	Audits            uint64 `json:"audits,omitempty"`
	AuditRefutations  uint64 `json:"auditRefutations,omitempty"`
	AuditsShed        uint64 `json:"auditsShed,omitempty"`
	// CertsCosigned counts co-signatures this authority issued over its
	// own verdicts (MsgCoSign); CertsStored counts quorum certificates
	// accepted into the durable log — locally submitted or carried in by
	// anti-entropy; CertsServed counts certificates handed to clients
	// (MsgCertGet hits); CertsRejected counts certificates refused because
	// they failed offline verification against the panel keyset.
	CertsCosigned uint64 `json:"certsCosigned,omitempty"`
	CertsStored   uint64 `json:"certsStored,omitempty"`
	CertsServed   uint64 `json:"certsServed,omitempty"`
	CertsRejected uint64 `json:"certsRejected,omitempty"`
	// Accepted / Rejected partition delivered verdicts.
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	// Failures counts requests that produced no verdict at all (unknown
	// format, cancelled context, service shutdown).
	Failures uint64 `json:"failures"`
	// InFlight is the number of requests currently being served;
	// PeakInFlight is the highest concurrency observed.
	InFlight     int64 `json:"inFlight"`
	PeakInFlight int64 `json:"peakInFlight"`
	// CacheEntries is the current verdict-cache population; CacheShards
	// the stripe count and ShardEntries the per-stripe population (nil
	// when caching is disabled); Workers the procedure-slot count
	// (Config.Workers).
	CacheEntries int   `json:"cacheEntries"`
	CacheShards  int   `json:"cacheShards"`
	ShardEntries []int `json:"shardEntries,omitempty"`
	Workers      int   `json:"workers"`
	// Latency summarizes end-to-end request latencies.
	Latency LatencySummary `json:"latency"`
	// Streams counts VerifyStream exchanges (a streamed batch is one
	// stream; its items still count into Requests one by one).
	Streams uint64 `json:"streams,omitempty"`
	// StreamTTFV summarizes each stream's time-to-first-verdict: how long
	// the first frame took to leave, measured from stream admission. This
	// is the latency streaming exists to flatten — it should track a
	// single verification, not the batch size.
	StreamTTFV LatencySummary `json:"streamTtfv"`
	// Admission reports the two-tier admission controller's per-class
	// counters and configured budgets; nil when admission is unlimited
	// (no AdmissionConfig rate set).
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Persistence reports the durable verdict store's counters —
	// persisted/replayed/compacted records, queue drops, salvage — and
	// is nil when persistence is disabled (no Config.PersistPath).
	Persistence *store.Stats `json:"persistence,omitempty"`
	// Federation reports the signed anti-entropy trust boundary: this
	// authority's signing identity, the allowlist size, per-peer
	// accepted/rejected delta counters and the rejection cause buckets —
	// plus, with a trust policy attached, each peer's reputation,
	// standing and refutation count. Nil when none of Config.Key,
	// Config.PeerKeys and Config.Trust is set.
	Federation *FederationStats `json:"federation,omitempty"`
	// Gossip reports the replication loop — rounds, exchanges, in-sync
	// probes, records and bytes moved, the pending rumor board and the
	// per-peer view (breaker state, consecutive failures, remaining
	// backoff, attempt/failure/skip counters) — when a Gossiper is
	// attached; nil otherwise.
	Gossip *gossip.Stats `json:"gossip,omitempty"`
}

// snapshot assembles a Stats value from the live counters. Counters are
// read individually without a global lock, so a snapshot taken mid-traffic
// may be off by the few requests that completed between reads — the usual
// monitoring trade-off, and the price of a lock-free hot path. One
// relation does hold in every snapshot: a request counts into Requests
// before it counts as a hit or a miss, and Requests is read after both,
// so CacheHits+CacheMisses never exceeds Requests (the shortfall is the
// requests still before their cache lookup).
func (m *metrics) snapshot(shardLens []int, shardCount, workers int) Stats {
	cacheEntries := 0
	for _, n := range shardLens {
		cacheEntries += n
	}
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	s := Stats{
		Requests:          m.requests.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
		Deduplicated:      m.deduplicated.Load(),
		Ingested:          m.ingested.Load(),
		DeltasServed:      m.deltasServed.Load(),
		SyncRounds:        m.syncRounds.Load(),
		IngestRefutations: m.ingestRefutations.Load(),
		Audits:            m.audits.Load(),
		AuditRefutations:  m.auditRefutations.Load(),
		AuditsShed:        m.auditsShed.Load(),
		CertsCosigned:     m.certsCosigned.Load(),
		CertsStored:       m.certsStored.Load(),
		CertsServed:       m.certsServed.Load(),
		CertsRejected:     m.certsRejected.Load(),
		Accepted:          m.accepted.Load(),
		Rejected:          m.rejected.Load(),
		Failures:          m.failures.Load(),
		InFlight:          m.inFlight.Load(),
		PeakInFlight:      m.peakInFlight.Load(),
		CacheEntries:      cacheEntries,
		CacheShards:       shardCount,
		ShardEntries:      shardLens,
		Workers:           workers,
	}
	s.Latency = m.lat.summary()
	s.Streams = m.streams.Load()
	s.StreamTTFV = m.ttfv.summary()
	return s
}

// summary snapshots the recorder's histogram and derives the percentile
// estimates from the bucket counts.
func (r *latencyRecorder) summary() LatencySummary {
	// Count gates everything else: the gauges are updated by separate
	// atomics after count, so a snapshot racing the very first sample
	// can observe min already set while count still reads 0. An
	// all-zero summary is the only self-consistent answer then — a
	// "Min > 0, Count == 0" summary would read as corrupted counters.
	count := r.count.Load()
	if count == 0 {
		return LatencySummary{}
	}
	sum := LatencySummary{
		Count: count,
		Total: time.Duration(r.total.Load()),
		Min:   time.Duration(r.min.Load()),
		Max:   time.Duration(r.max.Load()),
	}
	sum.Mean = sum.Total / time.Duration(count)
	buckets := make([]uint64, latencyBuckets)
	var total uint64
	last := -1 // highest populated bucket, for the trailing-zero trim
	for i := range r.hist {
		buckets[i] = r.hist[i].Load()
		total += buckets[i]
		if buckets[i] != 0 {
			last = i
		}
	}
	// Ship only the populated prefix: a typical summary has single-digit
	// live buckets, and the trimmed tail is unambiguous — bucket indexes
	// keep their meaning, consumers treat the missing suffix as zeros.
	sum.Buckets = buckets[:last+1]
	if total == 0 {
		return sum
	}
	// Percentile rank within the histogram's own total: the histogram and
	// latCount are updated by separate atomics, so mid-traffic they may
	// briefly disagree by a request or two.
	sum.P50 = histPercentile(buckets, total, 50)
	sum.P95 = histPercentile(buckets, total, 95)
	sum.P99 = histPercentile(buckets, total, 99)
	if sum.Max > 0 {
		// The true max is a tighter bound than the last bucket's ceiling.
		sum.P50 = min(sum.P50, sum.Max)
		sum.P95 = min(sum.P95, sum.Max)
		sum.P99 = min(sum.P99, sum.Max)
	}
	return sum
}

// histPercentile finds the bucket containing the pct-th percentile rank
// and reports its upper bound.
func histPercentile(buckets []uint64, total uint64, pct uint64) time.Duration {
	rank := (total*pct + 99) / 100 // ceil: the rank-th smallest sample
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			return bucketUpperBound(i)
		}
	}
	return bucketUpperBound(len(buckets) - 1)
}
