package obs

import (
	"fmt"
	"io"
	"math"
	"time"

	"rationality/internal/service"
)

// WriteText renders a Stats snapshot for humans: the exact lines the
// authority's `stats` subcommand prints and the verifier's shutdown
// report ends with. The format is stable — the README's operator guides
// and the CI smoke grep these lines — so changes here are API changes.
func WriteText(w io.Writer, st service.Stats) {
	fmt.Fprintf(w, "requests=%d hits=%d misses=%d deduped=%d ingested=%d deltasServed=%d syncRounds=%d\n",
		st.Requests, st.CacheHits, st.CacheMisses, st.Deduplicated,
		st.Ingested, st.DeltasServed, st.SyncRounds)
	fmt.Fprintf(w, "accepted=%d rejected=%d failures=%d peakInFlight=%d cacheEntries=%d workers=%d\n",
		st.Accepted, st.Rejected, st.Failures, st.PeakInFlight, st.CacheEntries, st.Workers)
	if st.CacheShards > 0 {
		fmt.Fprintf(w, "cache: %d shards, per-shard entries %v\n", st.CacheShards, st.ShardEntries)
	}
	if st.Latency.Count > 0 {
		fmt.Fprintf(w, "latency: n=%d mean=%s min=%s max=%s\n",
			st.Latency.Count, st.Latency.Mean, st.Latency.Min, st.Latency.Max)
		fmt.Fprintf(w, "latency: p50<=%s p95<=%s p99<=%s (log2-bucket estimates)\n",
			st.Latency.P50, st.Latency.P95, st.Latency.P99)
	}
	if st.Streams > 0 {
		fmt.Fprintf(w, "streams: n=%d ttfv mean=%s max=%s\n",
			st.Streams, st.StreamTTFV.Mean, st.StreamTTFV.Max)
		fmt.Fprintf(w, "streams: ttfv p50<=%s p95<=%s p99<=%s (log2-bucket estimates)\n",
			st.StreamTTFV.P50, st.StreamTTFV.P95, st.StreamTTFV.P99)
	}
	if a := st.Admission; a != nil {
		fmt.Fprintf(w, "admission: interactive admitted=%d shed=%d shedItems=%d rate=%g burst=%d\n",
			a.Interactive.Admitted, a.Interactive.Shed, a.Interactive.ShedItems, a.Interactive.Rate, a.Interactive.Burst)
		fmt.Fprintf(w, "admission: batch admitted=%d shed=%d shedItems=%d rate=%g burst=%d\n",
			a.Batch.Admitted, a.Batch.Shed, a.Batch.ShedItems, a.Batch.Rate, a.Batch.Burst)
	}
	if p := st.Persistence; p != nil {
		fmt.Fprintf(w, "persistence: persisted=%d replayed=%d ingested=%d dropped=%d failed=%d live=%d garbage=%d\n",
			p.Persisted, p.Replayed, p.Ingested, p.Dropped, p.Failed, p.LiveRecords, p.GarbageRecords)
		fmt.Fprintf(w, "persistence: compactions=%d compactedRecords=%d salvagedBytes=%d\n",
			p.Compactions, p.CompactedRecords, p.SalvagedBytes)
	}
	if st.Audits > 0 || st.AuditRefutations > 0 || st.AuditsShed > 0 || st.IngestRefutations > 0 {
		fmt.Fprintf(w, "accountability: audits=%d auditRefutations=%d auditsShed=%d ingestRefutations=%d\n",
			st.Audits, st.AuditRefutations, st.AuditsShed, st.IngestRefutations)
	}
	if st.CertsCosigned > 0 || st.CertsStored > 0 || st.CertsServed > 0 || st.CertsRejected > 0 {
		fmt.Fprintf(w, "certificates: cosigned=%d stored=%d served=%d rejected=%d\n",
			st.CertsCosigned, st.CertsStored, st.CertsServed, st.CertsRejected)
	}
	if f := st.Federation; f != nil {
		fmt.Fprintf(w, "federation: signer=%s trustedPeers=%d rejectedUnsigned=%d rejectedUnknown=%d rejectedBadSig=%d rejectedCorrupt=%d\n",
			f.Signer, f.TrustedPeers, f.RejectedUnsigned, f.RejectedUnknown, f.RejectedBadSig, f.RejectedCorrupt)
		if f.Quarantined > 0 || f.RejectedQuarantined > 0 {
			fmt.Fprintf(w, "federation: quarantined=%d rejectedQuarantined=%d\n",
				f.Quarantined, f.RejectedQuarantined)
		}
		for _, id := range sortedKeys(f.Peers) {
			p := f.Peers[id]
			fmt.Fprintf(w, "federation: peer %s deltas=%d records=%d rejected=%d\n",
				id, p.Deltas, p.Records, p.Rejected)
			if p.State != "" {
				fmt.Fprintf(w, "federation: trust %s state=%s reputation=%.3f refutations=%d\n",
					id, p.State, p.Reputation, p.Refutations)
			}
		}
	}
	if g := st.Gossip; g != nil {
		for _, sp := range g.Peers {
			fmt.Fprintf(w, "sync: peer %s state=%s attempts=%d pulled=%d failed=%d skippedBackoff=%d skippedQuarantine=%d\n",
				sp.Address, sp.State, sp.Attempts, sp.RecordsReceived, sp.Failed, sp.SkippedBackoff, sp.SkippedQuarantine)
		}
		fmt.Fprintf(w, "gossip: rounds=%d exchanges=%d failures=%d inSync=%d sent=%d received=%d bytesTx=%d bytesRx=%d rumors=%d fanout=%d seed=%d\n",
			g.Rounds, g.Exchanges, g.Failures, g.InSync, g.RecordsSent, g.RecordsReceived,
			g.BytesSent, g.BytesReceived, g.RumorsPending, g.Fanout, g.Seed)
	}
}

// WatchDelta is one row of the live `stats -watch` view: the rates and
// ratios computed between two consecutive Stats snapshots, plus the
// point-in-time gauges from the newer one. Build it with DiffStats.
type WatchDelta struct {
	// Elapsed is the window the rates are normalized over.
	Elapsed time.Duration
	// Requests counts verifications completed inside the window.
	Requests uint64
	// ReqPerSec is the window's per-second rate of admitted requests.
	ReqPerSec float64
	// DedupPerSec is the per-second rate of singleflight followers.
	DedupPerSec float64
	// IngestPerSec is the per-second rate of anti-entropy ingests.
	IngestPerSec float64
	// FedRejectPerSec is the per-second rate of federation rejections,
	// all causes summed.
	FedRejectPerSec float64
	// FailPerSec is the per-second rate of no-verdict failures.
	FailPerSec float64
	// HitRatio is cache hits over requests within the window; NaN when
	// the window saw no requests (rendered as "-").
	HitRatio float64
	// P50 / P99 are the newer snapshot's cumulative latency estimates.
	P50, P99 time.Duration
	// InFlight is the newer snapshot's in-flight request gauge.
	InFlight int64
	// CacheEntries is the newer snapshot's verdict-cache population.
	CacheEntries int
	// LiveRecords is the newer snapshot's on-disk live-key count (zero
	// without persistence).
	LiveRecords uint64
}

// DiffStats computes one watch row from two snapshots taken elapsed
// apart. Counters that moved backwards — a restarted authority — are
// treated as counting from zero, so a watch survives the restart of what
// it is watching instead of printing absurd negative rates.
func DiffStats(prev, cur service.Stats, elapsed time.Duration) WatchDelta {
	sec := elapsed.Seconds()
	if sec <= 0 {
		sec = math.Inf(1) // degenerate window: every rate reads 0
	}
	reqs := counterDelta(prev.Requests, cur.Requests)
	hits := counterDelta(prev.CacheHits, cur.CacheHits)
	d := WatchDelta{
		Elapsed:         elapsed,
		Requests:        reqs,
		ReqPerSec:       float64(reqs) / sec,
		DedupPerSec:     float64(counterDelta(prev.Deduplicated, cur.Deduplicated)) / sec,
		IngestPerSec:    float64(counterDelta(prev.Ingested, cur.Ingested)) / sec,
		FedRejectPerSec: float64(counterDelta(fedRejected(prev), fedRejected(cur))) / sec,
		FailPerSec:      float64(counterDelta(prev.Failures, cur.Failures)) / sec,
		HitRatio:        math.NaN(),
		P50:             cur.Latency.P50,
		P99:             cur.Latency.P99,
		InFlight:        cur.InFlight,
		CacheEntries:    cur.CacheEntries,
	}
	if reqs > 0 {
		d.HitRatio = float64(hits) / float64(reqs)
	}
	if cur.Persistence != nil {
		d.LiveRecords = cur.Persistence.LiveRecords
	}
	return d
}

// counterDelta is cur-prev with restart tolerance: a counter that moved
// backwards restarted at zero, so the window's delta is cur itself.
func counterDelta(prev, cur uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// fedRejected sums a snapshot's federation rejection buckets across all
// causes (zero when federation is off).
func fedRejected(st service.Stats) uint64 {
	f := st.Federation
	if f == nil {
		return 0
	}
	return f.RejectedUnsigned + f.RejectedUnknown + f.RejectedBadSig + f.RejectedCorrupt + f.RejectedQuarantined
}

// WatchHeader is the column header of the watch view; the watch loop
// reprints it periodically, top-style.
func WatchHeader() string {
	return fmt.Sprintf("%9s %6s %8s %8s %8s %7s %11s %11s %6s %7s %7s",
		"req/s", "hit%", "dedup/s", "ingst/s", "fedrej/s", "fail/s", "p50", "p99", "inflt", "cache", "live")
}

// Row renders the delta as one aligned watch line under WatchHeader.
func (d WatchDelta) Row() string {
	hit := "-"
	if !math.IsNaN(d.HitRatio) {
		hit = fmt.Sprintf("%.1f%%", d.HitRatio*100)
	}
	return fmt.Sprintf("%9.1f %6s %8.1f %8.1f %8.1f %7.1f %11s %11s %6d %7d %7d",
		d.ReqPerSec, hit, d.DedupPerSec, d.IngestPerSec, d.FedRejectPerSec, d.FailPerSec,
		watchDuration(d.P50), watchDuration(d.P99), d.InFlight, d.CacheEntries, d.LiveRecords)
}

// watchDuration renders a latency estimate compactly: log2 bucket bounds
// carry sub-nanosecond noise no one reads in a terminal column.
func watchDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return d.Round(time.Nanosecond).String()
	case d < time.Second:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}
