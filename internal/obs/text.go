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

// WatchHeader is the column header of the watch view; the watch loop
// reprints it periodically, top-style.
func WatchHeader() string {
	return fmt.Sprintf("%9s %6s %8s %8s %8s %7s %11s %11s %6s %7s %7s",
		"req/s", "hit%", "dedup/s", "ingst/s", "fedrej/s", "fail/s", "p50", "p99", "inflt", "cache", "live")
}

// WatchRow renders one line of the live `stats -watch` view under
// WatchHeader: per-second rates over the window between two snapshots
// taken elapsed apart (requests, singleflight followers, anti-entropy
// ingests, federation rejections across causes, failures), the window's
// hit ratio ("-" when it saw no requests), and the newer snapshot's
// latency estimates and gauges. A counter that moved backwards — a
// restarted authority — counts from zero, so a watch survives the restart
// of what it is watching; a window of zero length reads every rate as 0.
func WatchRow(prev, cur service.Stats, elapsed time.Duration) string {
	sec := elapsed.Seconds()
	if sec <= 0 {
		sec = math.Inf(1)
	}
	delta := func(p, c uint64) uint64 {
		if c < p {
			return c
		}
		return c - p
	}
	rate := func(p, c uint64) float64 { return float64(delta(p, c)) / sec }
	reqs := delta(prev.Requests, cur.Requests)
	hit := "-"
	if reqs > 0 {
		hit = fmt.Sprintf("%.1f%%", float64(delta(prev.CacheHits, cur.CacheHits))/float64(reqs)*100)
	}
	var live uint64
	if cur.Persistence != nil {
		live = cur.Persistence.LiveRecords
	}
	return fmt.Sprintf("%9.1f %6s %8.1f %8.1f %8.1f %7.1f %11s %11s %6d %7d %7d",
		float64(reqs)/sec, hit, rate(prev.Deduplicated, cur.Deduplicated), rate(prev.Ingested, cur.Ingested),
		rate(fedRejected(prev), fedRejected(cur)), rate(prev.Failures, cur.Failures),
		watchDuration(cur.Latency.P50), watchDuration(cur.Latency.P99), cur.InFlight, cur.CacheEntries, live)
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
