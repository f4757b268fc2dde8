package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rationality/internal/gossip"
	"rationality/internal/service"
)

// Prometheus text exposition (format version 0.0.4) over service.Stats.
// The renderer is deliberately hand-rolled: the module is dependency-free
// and the exposition format is tiny — HELP/TYPE lines per family, one
// sample per line, label values escaped. Every family is one call: one
// for a single sample, over for one sample per label set. Output is
// deterministic (map-backed sections iterate in sorted order) so the
// golden test can compare bytes.

// MetricsContentType is the Content-Type of the /metrics reply: the
// Prometheus text exposition version this package renders.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// Metric family types.
const (
	counter = "counter"
	gauge   = "gauge"
)

// promWriter accumulates exposition text family by family.
type promWriter struct {
	b strings.Builder
}

// one emits a family of a single unlabelled sample.
func (p *promWriter) one(name, typ, help string, v any) {
	p.header(name, typ, help)
	p.sample(name, "", v)
}

// over emits a family with one sample per label set, value(i) being set
// i's sample. A family with no label sets is left out entirely.
func (p *promWriter) over(name, typ, help string, sets []string, value func(i int) any) {
	if len(sets) == 0 {
		return
	}
	p.header(name, typ, help)
	for i, set := range sets {
		p.sample(name, set, value(i))
	}
}

// Escapes of the exposition format: HELP text escapes backslash and
// newline, label values double quotes too.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// header emits the HELP and TYPE lines of one family.
func (p *promWriter) header(name, typ, help string) {
	for _, s := range [...]string{"# HELP ", name, " ", helpEscaper.Replace(help), "\n# TYPE ", name, " ", typ, "\n"} {
		p.b.WriteString(s)
	}
}

// sample emits one sample line: name{set} value. Durations render in
// seconds and booleans as 1 or 0.
func (p *promWriter) sample(name, set string, v any) {
	p.b.WriteString(name)
	if set != "" {
		p.b.WriteByte('{')
		p.b.WriteString(set)
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	switch v := v.(type) {
	case uint64:
		p.b.WriteString(strconv.FormatUint(v, 10))
	case int64:
		p.b.WriteString(strconv.FormatInt(v, 10))
	case int:
		p.b.WriteString(strconv.Itoa(v))
	case float64:
		p.b.WriteString(formatFloat(v))
	case time.Duration:
		p.b.WriteString(formatFloat(v.Seconds()))
	case bool:
		if v {
			p.b.WriteByte('1')
		} else {
			p.b.WriteByte('0')
		}
	default:
		panic(fmt.Sprintf("obs: sample %s has unsupported type %T", name, v))
	}
	p.b.WriteByte('\n')
}

// labels renders one label set per value: name="value", escaped.
func labels(name string, values ...string) []string {
	sets := make([]string, len(values))
	for i, v := range values {
		sets[i] = name + `="` + labelEscaper.Replace(v) + `"`
	}
	return sets
}

// formatFloat renders a float the shortest way that round-trips, the
// conventional Prometheus float formatting.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WriteMetrics renders a service Stats snapshot as Prometheus text
// exposition: every counter and gauge the snapshot carries, the log2
// latency histogram as a native Prometheus histogram with cumulative `le`
// buckets over the full bucket range (the summary's trimmed tail is
// rendered as zeros), per-shard cache gauges, the durable store's
// counters when persistence is enabled, and the federation trust-boundary
// counters — per rejection cause and per peer — when federation is
// configured. verifierID labels the rationality_authority_info series.
// Output is deterministic for a given snapshot.
func WriteMetrics(w io.Writer, verifierID string, st service.Stats) error {
	var p promWriter

	// Identity first: the info-series idiom gives dashboards the authority
	// ID and signing identity as labels without stamping them on every
	// series.
	info := labels("id", verifierID)[0]
	if st.Federation != nil && st.Federation.Signer != "" {
		info += "," + labels("signer", string(st.Federation.Signer))[0]
	}
	p.over("rationality_authority_info", gauge, "Authority identity: constant 1, labeled with the verifier ID and (when keyed) the Ed25519 signing party ID.", []string{info}, func(int) any { return 1 })

	// Request-path counters.
	p.one("rationality_requests_total", counter, "Admitted single verifications (batch items included); cache hits + misses always equal this.", st.Requests)
	p.one("rationality_cache_hits_total", counter, "Requests answered from the verdict cache.", st.CacheHits)
	p.one("rationality_cache_misses_total", counter, "Requests that missed the verdict cache.", st.CacheMisses)
	p.one("rationality_deduplicated_total", counter, "Requests that shared a concurrent identical verification (singleflight followers).", st.Deduplicated)
	verdicts := []uint64{st.Accepted, st.Rejected}
	p.over("rationality_verdicts_total", counter, "Delivered verdicts partitioned by outcome.", labels("verdict", "accepted", "rejected"), func(i int) any { return verdicts[i] })
	p.one("rationality_failures_total", counter, "Requests that produced no verdict at all (unknown format, cancelled context, service shutdown).", st.Failures)

	// Concurrency gauges.
	p.one("rationality_in_flight", gauge, "Requests currently being served.", st.InFlight)
	p.one("rationality_in_flight_peak", gauge, "Highest concurrency observed since start.", st.PeakInFlight)
	p.one("rationality_workers", gauge, "Procedure slots: how many verifications may run their procedure at once.", st.Workers)

	// Cache population, total and per stripe.
	p.one("rationality_cache_entries", gauge, "Current verdict-cache population.", st.CacheEntries)
	p.one("rationality_cache_shards", gauge, "Verdict-cache stripe count.", st.CacheShards)
	shards := make([]string, len(st.ShardEntries))
	for i := range shards {
		shards[i] = strconv.Itoa(i)
	}
	p.over("rationality_cache_shard_entries", gauge, "Verdict-cache population per stripe.", labels("shard", shards...), func(i int) any { return st.ShardEntries[i] })

	// Anti-entropy counters (present even unfederated: intra-operator
	// replication reports here too).
	p.one("rationality_ingested_total", counter, "Verdicts absorbed from peers via anti-entropy (replication, never counted as hits or misses).", st.Ingested)
	p.one("rationality_sync_deltas_served_total", counter, "Sync-offer requests answered for peers.", st.DeltasServed)
	p.one("rationality_sync_rounds_total", counter, "Completed anti-entropy passes over the peer list.", st.SyncRounds)

	// Accountability counters: refutations caught at ingest, and the
	// background audit re-verifier's activity.
	p.one("rationality_ingest_refutations_total", counter, "Ingested records refused because they contradicted a locally verified verdict (each one charged to the vouching peer).", st.IngestRefutations)
	p.one("rationality_audits_total", counter, "Ingested records re-verified by the background auditor.", st.Audits)
	p.one("rationality_audit_refutations_total", counter, "Audits that refuted the vouched verdict: proven lies, charged and repaired.", st.AuditRefutations)
	p.one("rationality_audits_shed_total", counter, "Audit samples dropped because the audit queue was full (lost coverage, never correctness).", st.AuditsShed)

	// Quorum-certificate counters: the CoSi-style collective-signing
	// pipeline, from a panel member's co-signatures out to offline serving.
	p.one("rationality_certificates_cosigned_total", counter, "Co-signatures this authority issued over its own verdicts (cosign requests answered).", st.CertsCosigned)
	p.one("rationality_certificates_stored_total", counter, "Quorum certificates accepted into the durable log, locally submitted or carried in by anti-entropy.", st.CertsStored)
	p.one("rationality_certificates_served_total", counter, "Stored certificates handed to clients for offline verification.", st.CertsServed)
	p.one("rationality_certificates_rejected_total", counter, "Certificates refused because they failed offline verification against the panel keyset.", st.CertsRejected)

	writeLatencyHistogram(&p, "rationality_request_duration_seconds",
		"End-to-end request latency, from the service's lock-free log2 histogram (bucket i spans up to 2^(i+1)-1 ns).",
		st.Latency)
	// Min/Max are exact observed bounds the histogram's resolution cannot
	// carry; exposed as companion gauges.
	p.one("rationality_request_duration_min_seconds", gauge, "Smallest observed request latency (0 until the first request completes).", st.Latency.Min)
	p.one("rationality_request_duration_max_seconds", gauge, "Largest observed request latency.", st.Latency.Max)

	// Streaming: stream count plus the time-to-first-verdict histogram —
	// the latency streaming exists to flatten.
	p.one("rationality_streams_total", counter, "VerifyStream exchanges started (admitted past the batch class).", st.Streams)
	writeLatencyHistogram(&p, "rationality_stream_first_verdict_seconds",
		"Time from stream admission to the first emitted verdict, per stream.",
		st.StreamTTFV)

	// The two-tier admission controller's per-class counters and
	// configured budgets; absent when no admission budget is configured.
	if a := st.Admission; a != nil {
		cls := []service.ClassAdmissionStats{a.Interactive, a.Batch}
		sets := labels("class", string(service.ClassInteractive), string(service.ClassBatch))
		p.over("rationality_admission_admitted_total", counter, "Admission-controller decisions that admitted the request (a whole batch or stream counts once), by class.", sets, func(i int) any { return cls[i].Admitted })
		p.over("rationality_admission_shed_total", counter, "Requests refused with 'admission rejected', by class; the batch class always saturates first.", sets, func(i int) any { return cls[i].Shed })
		p.over("rationality_admission_shed_items_total", counter, "Verification items inside shed requests, by class (a shed N-item batch counts N).", sets, func(i int) any { return cls[i].ShedItems })
		p.over("rationality_admission_rate", gauge, "Configured sustained admission rate in items per second, by class (0 means unlimited).", sets, func(i int) any { return cls[i].Rate })
		p.over("rationality_admission_burst", gauge, "Configured admission burst in items, by class.", sets, func(i int) any { return cls[i].Burst })
	}

	if ps := st.Persistence; ps != nil {
		p.one("rationality_store_persisted_total", counter, "Records appended to the durable verdict log since open.", ps.Persisted)
		p.one("rationality_store_replayed", gauge, "Warm-start records replayed into the cache at open.", ps.Replayed)
		p.one("rationality_store_dropped_total", counter, "Appends discarded because the store queue was full (lost warmth, never correctness).", ps.Dropped)
		p.one("rationality_store_failed_total", counter, "Records lost to a write failure; growing with quiet drops means the disk is the problem, not the load.", ps.Failed)
		p.one("rationality_store_ingested_total", counter, "Records absorbed into the durable log from peers since open.", ps.Ingested)
		p.one("rationality_store_compactions_total", counter, "Snapshot compactions since open.", ps.Compactions)
		p.one("rationality_store_compacted_records_total", counter, "Records eliminated by compaction (superseded duplicates plus retired cold records).", ps.CompactedRecords)
		p.one("rationality_store_live_records", gauge, "Distinct live keys on disk.", ps.LiveRecords)
		p.one("rationality_store_garbage_records", gauge, "Superseded records awaiting compaction.", ps.GarbageRecords)
		p.one("rationality_store_salvaged_bytes", gauge, "Bytes a torn-tail recovery truncated at open (zero after a clean shutdown).", ps.SalvagedBytes)
	}

	if fs := st.Federation; fs != nil {
		p.one("rationality_federation_trusted_peers", gauge, "Peer-allowlist size; zero accepts any peer (intra-operator mode).", fs.TrustedPeers)
		p.one("rationality_peers_quarantined", gauge, "Peers currently quarantined by the trust policy.", fs.Quarantined)
		causes := []uint64{fs.RejectedUnsigned, fs.RejectedUnknown, fs.RejectedBadSig, fs.RejectedCorrupt, fs.RejectedQuarantined}
		p.over("rationality_federation_rejected_total", counter, "Sync-deltas refused before ingest, by cause: unsigned, unknown-signer, bad-signature, corrupt, quarantined.",
			labels("cause", "unsigned", "unknown-signer", "bad-signature", "corrupt", "quarantined"), func(i int) any { return causes[i] })
		ids := sortedKeys(fs.Peers)
		peers := labels("peer", ids...)
		p.over("rationality_federation_peer_deltas_total", counter, "Verified sync-deltas accepted per signing peer.", peers, func(i int) any { return fs.Peers[ids[i]].Deltas })
		p.over("rationality_federation_peer_records_total", counter, "Records applied from each signing peer's accepted deltas.", peers, func(i int) any { return fs.Peers[ids[i]].Records })
		p.over("rationality_federation_peer_rejected_total", counter, "Sync-deltas refused per claimed signing peer.", peers, func(i int) any { return fs.Peers[ids[i]].Rejected })
		// Trust standing per peer, present only when a trust policy is
		// attached (State is empty otherwise).
		var tracked []string
		for _, id := range ids {
			if fs.Peers[id].State != "" {
				tracked = append(tracked, id)
			}
		}
		trust := labels("peer", tracked...)
		p.over("rationality_peer_quarantined", gauge, "Whether the trust policy currently quarantines the peer: 1 refused, 0 ingesting (active or probation).", trust, func(i int) any { return fs.Peers[tracked[i]].State == "quarantined" })
		p.over("rationality_peer_reputation", gauge, "The peer's smoothed reputation in (0, 1) as the trust policy sees it.", trust, func(i int) any { return fs.Peers[tracked[i]].Reputation })
		p.over("rationality_peer_refutations_total", counter, "Proven lies charged to the peer: ingest contradictions plus audit refutations.", trust, func(i int) any { return fs.Peers[tracked[i]].Refutations })
	}

	// The replication loop: round and exchange totals, the in-sync probe
	// count (a converged push-pull federation idles at inSync ≈ exchanges
	// — the convergence signal), payload by direction, the rumor board and
	// the per-peer breaker view. Absent when no gossiper is attached.
	if gs := st.Gossip; gs != nil {
		p.one("rationality_gossip_rounds_total", counter, "Completed replication rounds.", gs.Rounds)
		p.one("rationality_gossip_exchanges_total", counter, "Successful peer exchanges across all rounds.", gs.Exchanges)
		p.one("rationality_gossip_exchange_failures_total", counter, "Exchanges that failed (dial, timeout, refused delta); retried against other partners on later rounds.", gs.Failures)
		p.one("rationality_gossip_in_sync_total", counter, "Exchanges settled by fingerprint agreement alone; a converged federation idles with this tracking exchanges.", gs.InSync)
		dirs := labels("direction", "sent", "received")
		records, payload := []uint64{gs.RecordsSent, gs.RecordsReceived}, []uint64{gs.BytesSent, gs.BytesReceived}
		p.over("rationality_gossip_records_total", counter, "Records moved by the replication loop, by direction.", dirs, func(i int) any { return records[i] })
		p.over("rationality_gossip_payload_bytes_total", counter, "Replication payload bytes on the wire, by direction.", dirs, func(i int) any { return payload[i] })
		p.one("rationality_gossip_rumors_pending", gauge, "Hot records currently on the rumor board, still being pushed eagerly.", gs.RumorsPending)
		p.one("rationality_gossip_fanout", gauge, "Partners contacted per round.", gs.Fanout)

		// The per-peer breaker view: a one-hot state family plus the
		// attempt, failure and skip counters the no-dial-storm property is
		// observable through. Peers are labeled by configured address —
		// stable from the first round, before any exchange has proven which
		// signing identity the address speaks for.
		sp := gs.Peers
		var addrs, states, skips []string
		for _, peer := range sp {
			addrs = append(addrs, peer.Address)
		}
		peers := labels("peer", addrs...)
		breaker := []string{gossip.Healthy, gossip.Degraded, gossip.Open}
		for _, set := range peers {
			for _, state := range labels("state", breaker...) {
				states = append(states, set+","+state)
			}
			skips = append(skips, set+`,reason="backoff"`, set+`,reason="quarantine"`)
		}
		p.over("rationality_sync_peer_state", gauge, "Replication-loop breaker state per peer, one-hot across healthy/degraded/open.", states, func(i int) any { return sp[i/3].State == breaker[i%3] })
		p.over("rationality_sync_peer_backoff_seconds", gauge, "Remaining backoff window before the peer is due another attempt (0 when due now).", peers, func(i int) any { return sp[i].Backoff })
		p.over("rationality_sync_peer_attempts_total", counter, "Exchanges actually started against the peer.", peers, func(i int) any { return sp[i].Attempts })
		p.over("rationality_sync_peer_failed_total", counter, "Exchange attempts against the peer that errored.", peers, func(i int) any { return sp[i].Failed })
		p.over("rationality_sync_peer_pulled_records_total", counter, "Records applied from the peer by the replication loop.", peers, func(i int) any { return sp[i].RecordsReceived })
		p.over("rationality_sync_peer_skipped_total", counter, "Partner selections that passed over the peer without dialing, by reason: backoff window still open, or quarantined by the trust policy.", skips, func(i int) any {
			return []uint64{sp[i/2].SkippedBackoff, sp[i/2].SkippedQuarantine}[i%2]
		})
	}

	_, err := io.WriteString(w, p.b.String())
	return err
}

// writeLatencyHistogram renders a log2 latency summary as a native
// Prometheus histogram under the given family name. The service's
// buckets count observations with floor(log2(ns)) == i, so bucket i's
// inclusive upper bound is 2^(i+1)-1 ns — already a cumulative-friendly
// partition: `le` for bucket i is that bound in seconds and the counts
// accumulate across the full LatencyBuckets range (the summary ships a
// trimmed slice; the tail is zeros by construction). The +Inf bucket and
// _count are both the histogram's own total, so the exposition is
// self-consistent even when a racing snapshot caught Count a hair apart
// from the bucket sum; _sum is the summary's Total.
func writeLatencyHistogram(p *promWriter, name, help string, lat service.LatencySummary) {
	p.header(name, "histogram", help)
	bucket := name + "_bucket"
	var cum uint64
	for i := 0; i < service.LatencyBuckets; i++ {
		if i < len(lat.Buckets) {
			cum += lat.Buckets[i]
		}
		p.sample(bucket, `le="`+formatFloat(service.LatencyBucketBound(i).Seconds())+`"`, cum)
	}
	p.sample(bucket, `le="+Inf"`, cum)
	p.sample(name+"_sum", "", lat.Total)
	p.sample(name+"_count", "", cum)
}

// WriteReadyMetrics renders the readiness latch as metrics:
// rationality_ready (1 once every gate is marked) and one
// rationality_ready_gate sample per declared gate. The admin server
// appends this after WriteMetrics so dashboards can plot readiness next
// to traffic; it is exported separately because readiness lives outside
// the service Stats tree.
func WriteReadyMetrics(w io.Writer, r *Readiness) error {
	var p promWriter
	gates, done := r.snapshot()
	ready := true
	for _, g := range gates {
		ready = ready && done[g]
	}
	p.one("rationality_ready", gauge, "Whether every readiness gate has been marked: 1 serves traffic, 0 is warming up.", ready)
	p.over("rationality_ready_gate", gauge, "Per-gate readiness state: 1 once the named gate has been marked.", labels("gate", gates...), func(i int) any { return done[gates[i]] })
	_, err := io.WriteString(w, p.b.String())
	return err
}
