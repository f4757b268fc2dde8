package obs

import (
	"io"
	"strconv"
	"strings"

	"rationality/internal/gossip"
	"rationality/internal/service"
)

// Prometheus text exposition (format version 0.0.4) over service.Stats.
// The renderer is deliberately hand-rolled: the module is dependency-free
// and the exposition format is tiny — HELP/TYPE lines per family, one
// sample per line, label values escaped. Everything the Stats tree holds
// is rendered, nothing is sampled twice, and all output is deterministic
// (map-backed sections iterate in sorted order) so the golden test can
// compare bytes.

// MetricsContentType is the Content-Type of the /metrics reply: the
// Prometheus text exposition version this package renders.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// promLabel is one label pair of a sample line.
type promLabel struct{ name, value string }

// promWriter accumulates exposition text family by family.
type promWriter struct {
	b strings.Builder
}

// family emits the HELP and TYPE header of one metric family.
func (p *promWriter) family(name, help, typ string) {
	p.b.WriteString("# HELP ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(escapeHelp(help))
	p.b.WriteString("\n# TYPE ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(typ)
	p.b.WriteByte('\n')
}

// sample emits one sample line: name{labels} value.
func (p *promWriter) sample(name string, labels []promLabel, value string) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(l.name)
			p.b.WriteString(`="`)
			p.b.WriteString(escapeLabel(l.value))
			p.b.WriteByte('"')
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(value)
	p.b.WriteByte('\n')
}

// counter emits a single-sample counter family.
func (p *promWriter) counter(name, help string, v uint64) {
	p.family(name, help, "counter")
	p.sample(name, nil, formatUint(v))
}

// gauge emits a single-sample gauge family.
func (p *promWriter) gauge(name, help string, v int64) {
	p.family(name, help, "gauge")
	p.sample(name, nil, strconv.FormatInt(v, 10))
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a HELP text: backslash and newline (quotes are legal
// there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatUint renders a counter value.
func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// formatSeconds renders a duration-derived float the shortest way that
// round-trips, the conventional Prometheus float formatting.
func formatSeconds(sec float64) string { return strconv.FormatFloat(sec, 'g', -1, 64) }

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
	p.family("rationality_authority_info", "Authority identity: constant 1, labeled with the verifier ID and (when keyed) the Ed25519 signing party ID.", "gauge")
	info := []promLabel{{"id", verifierID}}
	if st.Federation != nil && st.Federation.Signer != "" {
		info = append(info, promLabel{"signer", string(st.Federation.Signer)})
	}
	p.sample("rationality_authority_info", info, "1")

	// Request-path counters.
	p.counter("rationality_requests_total", "Admitted single verifications (batch items included); cache hits + misses always equal this.", st.Requests)
	p.counter("rationality_batches_total", "VerifyBatch calls.", st.Batches)
	p.counter("rationality_cache_hits_total", "Requests answered from the verdict cache.", st.CacheHits)
	p.counter("rationality_cache_misses_total", "Requests that missed the verdict cache.", st.CacheMisses)
	p.counter("rationality_deduplicated_total", "Requests that shared a concurrent identical verification (singleflight followers).", st.Deduplicated)
	p.family("rationality_verdicts_total", "Delivered verdicts partitioned by outcome.", "counter")
	p.sample("rationality_verdicts_total", []promLabel{{"verdict", "accepted"}}, formatUint(st.Accepted))
	p.sample("rationality_verdicts_total", []promLabel{{"verdict", "rejected"}}, formatUint(st.Rejected))
	p.counter("rationality_failures_total", "Requests that produced no verdict at all (unknown format, cancelled context, service shutdown).", st.Failures)

	// Concurrency gauges.
	p.gauge("rationality_in_flight", "Requests currently being served.", st.InFlight)
	p.gauge("rationality_in_flight_peak", "Highest concurrency observed since start.", st.PeakInFlight)
	p.gauge("rationality_workers", "Executor pool size.", int64(st.Workers))

	// Cache population, total and per stripe.
	p.gauge("rationality_cache_entries", "Current verdict-cache population.", int64(st.CacheEntries))
	p.gauge("rationality_cache_shards", "Verdict-cache stripe count.", int64(st.CacheShards))
	if len(st.ShardEntries) > 0 {
		p.family("rationality_cache_shard_entries", "Verdict-cache population per stripe.", "gauge")
		for i, n := range st.ShardEntries {
			p.sample("rationality_cache_shard_entries", []promLabel{{"shard", strconv.Itoa(i)}}, strconv.Itoa(n))
		}
	}

	// Anti-entropy counters (present even unfederated: intra-operator
	// replication reports here too).
	p.counter("rationality_ingested_total", "Verdicts absorbed from peers via anti-entropy (replication, never counted as hits or misses).", st.Ingested)
	p.counter("rationality_sync_deltas_served_total", "Sync-offer requests answered for peers.", st.DeltasServed)
	p.counter("rationality_sync_rounds_total", "Completed anti-entropy passes over the peer list.", st.SyncRounds)

	// Accountability counters: refutations caught at ingest, and the
	// background audit re-verifier's activity.
	p.counter("rationality_ingest_refutations_total", "Ingested records refused because they contradicted a locally verified verdict (each one charged to the vouching peer).", st.IngestRefutations)
	p.counter("rationality_audits_total", "Ingested records re-verified by the background auditor.", st.Audits)
	p.counter("rationality_audit_refutations_total", "Audits that refuted the vouched verdict: proven lies, charged and repaired.", st.AuditRefutations)
	p.counter("rationality_audits_shed_total", "Audit samples dropped because the audit queue was full (lost coverage, never correctness).", st.AuditsShed)

	// Quorum-certificate counters: the CoSi-style collective-signing
	// pipeline, from a panel member's co-signatures out to offline serving.
	p.counter("rationality_certificates_cosigned_total", "Co-signatures this authority issued over its own verdicts (cosign requests answered).", st.CertsCosigned)
	p.counter("rationality_certificates_stored_total", "Quorum certificates accepted into the durable log, locally submitted or carried in by anti-entropy.", st.CertsStored)
	p.counter("rationality_certificates_served_total", "Stored certificates handed to clients for offline verification.", st.CertsServed)
	p.counter("rationality_certificates_rejected_total", "Certificates refused because they failed offline verification against the panel keyset.", st.CertsRejected)

	writeLatencyHistogram(&p, "rationality_request_duration_seconds",
		"End-to-end request latency, from the service's lock-free log2 histogram (bucket i spans up to 2^(i+1)-1 ns).",
		st.Latency)
	// Min/Max are exact observed bounds the histogram's resolution cannot
	// carry; exposed as companion gauges.
	p.family("rationality_request_duration_min_seconds", "Smallest observed request latency (0 until the first request completes).", "gauge")
	p.sample("rationality_request_duration_min_seconds", nil, formatSeconds(st.Latency.Min.Seconds()))
	p.family("rationality_request_duration_max_seconds", "Largest observed request latency.", "gauge")
	p.sample("rationality_request_duration_max_seconds", nil, formatSeconds(st.Latency.Max.Seconds()))

	// Streaming: stream count plus the time-to-first-verdict histogram —
	// the latency streaming exists to flatten.
	p.counter("rationality_streams_total", "VerifyStream exchanges started (admitted past the batch class).", st.Streams)
	writeLatencyHistogram(&p, "rationality_stream_first_verdict_seconds",
		"Time from stream admission to the first emitted verdict, per stream.",
		st.StreamTTFV)

	writeAdmission(&p, st.Admission)

	if ps := st.Persistence; ps != nil {
		p.counter("rationality_store_persisted_total", "Records appended to the durable verdict log since open.", ps.Persisted)
		p.gauge("rationality_store_replayed", "Warm-start records replayed into the cache at open.", int64(ps.Replayed))
		p.counter("rationality_store_dropped_total", "Appends discarded because the store queue was full (lost warmth, never correctness).", ps.Dropped)
		p.counter("rationality_store_failed_total", "Records lost to a write failure; growing with quiet drops means the disk is the problem, not the load.", ps.Failed)
		p.counter("rationality_store_ingested_total", "Records absorbed into the durable log from peers since open.", ps.Ingested)
		p.counter("rationality_store_compactions_total", "Snapshot compactions since open.", ps.Compactions)
		p.counter("rationality_store_compacted_records_total", "Records eliminated by compaction (superseded duplicates plus retired cold records).", ps.CompactedRecords)
		p.gauge("rationality_store_live_records", "Distinct live keys on disk.", int64(ps.LiveRecords))
		p.gauge("rationality_store_garbage_records", "Superseded records awaiting compaction.", int64(ps.GarbageRecords))
		p.gauge("rationality_store_salvaged_bytes", "Bytes a torn-tail recovery truncated at open (zero after a clean shutdown).", int64(ps.SalvagedBytes))
	}

	if fs := st.Federation; fs != nil {
		p.gauge("rationality_federation_trusted_peers", "Peer-allowlist size; zero accepts any peer (intra-operator mode).", int64(fs.TrustedPeers))
		p.gauge("rationality_peers_quarantined", "Peers currently quarantined by the trust policy.", int64(fs.Quarantined))
		p.family("rationality_federation_rejected_total", "Sync-deltas refused before ingest, by cause: unsigned, unknown-signer, bad-signature, corrupt, quarantined.", "counter")
		for _, c := range []struct {
			cause string
			n     uint64
		}{
			{"unsigned", fs.RejectedUnsigned},
			{"unknown-signer", fs.RejectedUnknown},
			{"bad-signature", fs.RejectedBadSig},
			{"corrupt", fs.RejectedCorrupt},
			{"quarantined", fs.RejectedQuarantined},
		} {
			p.sample("rationality_federation_rejected_total", []promLabel{{"cause", c.cause}}, formatUint(c.n))
		}
		if len(fs.Peers) > 0 {
			peerIDs := sortedKeys(fs.Peers)
			p.family("rationality_federation_peer_deltas_total", "Verified sync-deltas accepted per signing peer.", "counter")
			for _, id := range peerIDs {
				p.sample("rationality_federation_peer_deltas_total", []promLabel{{"peer", id}}, formatUint(fs.Peers[id].Deltas))
			}
			p.family("rationality_federation_peer_records_total", "Records applied from each signing peer's accepted deltas.", "counter")
			for _, id := range peerIDs {
				p.sample("rationality_federation_peer_records_total", []promLabel{{"peer", id}}, formatUint(fs.Peers[id].Records))
			}
			p.family("rationality_federation_peer_rejected_total", "Sync-deltas refused per claimed signing peer.", "counter")
			for _, id := range peerIDs {
				p.sample("rationality_federation_peer_rejected_total", []promLabel{{"peer", id}}, formatUint(fs.Peers[id].Rejected))
			}
			// Trust standing per peer, present only when a trust policy is
			// attached (State is empty otherwise).
			tracked := make([]string, 0, len(peerIDs))
			for _, id := range peerIDs {
				if fs.Peers[id].State != "" {
					tracked = append(tracked, id)
				}
			}
			if len(tracked) > 0 {
				p.family("rationality_peer_quarantined", "Whether the trust policy currently quarantines the peer: 1 refused, 0 ingesting (active or probation).", "gauge")
				for _, id := range tracked {
					v := "0"
					if fs.Peers[id].State == "quarantined" {
						v = "1"
					}
					p.sample("rationality_peer_quarantined", []promLabel{{"peer", id}}, v)
				}
				p.family("rationality_peer_reputation", "The peer's smoothed reputation in (0, 1) as the trust policy sees it.", "gauge")
				for _, id := range tracked {
					p.sample("rationality_peer_reputation", []promLabel{{"peer", id}}, formatSeconds(fs.Peers[id].Reputation))
				}
				p.family("rationality_peer_refutations_total", "Proven lies charged to the peer: ingest contradictions plus audit refutations.", "counter")
				for _, id := range tracked {
					p.sample("rationality_peer_refutations_total", []promLabel{{"peer", id}}, formatUint(fs.Peers[id].Refutations))
				}
			}
		}
	}

	writeGossip(&p, st.Gossip)

	_, err := io.WriteString(w, p.b.String())
	return err
}

// writeGossip renders the replication loop's counters: round and
// exchange totals, the in-sync probe count (a converged push-pull
// federation idles at inSync ≈ exchanges — the convergence signal),
// payload bytes by direction, the rumor-board gauge and the per-peer
// breaker view. Absent entirely when no gossiper is attached.
func writeGossip(p *promWriter, gs *gossip.Stats) {
	if gs == nil {
		return
	}
	p.counter("rationality_gossip_rounds_total", "Completed replication rounds.", gs.Rounds)
	p.counter("rationality_gossip_exchanges_total", "Successful peer exchanges across all rounds.", gs.Exchanges)
	p.counter("rationality_gossip_exchange_failures_total", "Exchanges that failed (dial, timeout, refused delta); retried against other partners on later rounds.", gs.Failures)
	p.counter("rationality_gossip_in_sync_total", "Exchanges settled by fingerprint agreement alone; a converged federation idles with this tracking exchanges.", gs.InSync)
	p.family("rationality_gossip_records_total", "Records moved by the replication loop, by direction.", "counter")
	p.sample("rationality_gossip_records_total", []promLabel{{"direction", "sent"}}, formatUint(gs.RecordsSent))
	p.sample("rationality_gossip_records_total", []promLabel{{"direction", "received"}}, formatUint(gs.RecordsReceived))
	p.family("rationality_gossip_payload_bytes_total", "Replication payload bytes on the wire, by direction.", "counter")
	p.sample("rationality_gossip_payload_bytes_total", []promLabel{{"direction", "sent"}}, formatUint(gs.BytesSent))
	p.sample("rationality_gossip_payload_bytes_total", []promLabel{{"direction", "received"}}, formatUint(gs.BytesReceived))
	p.gauge("rationality_gossip_rumors_pending", "Hot records currently on the rumor board, still being pushed eagerly.", int64(gs.RumorsPending))
	p.gauge("rationality_gossip_fanout", "Partners contacted per round.", int64(gs.Fanout))
	writeSyncPeers(p, gs.Peers)
}

// writeSyncPeers renders the replication loop's per-peer breaker view:
// a one-hot state family plus the attempt, failure and skip counters the
// no-dial-storm property is observable through. Peers are labeled by
// configured address — stable from the first round, before any exchange
// has proven which signing identity the address speaks for.
func writeSyncPeers(p *promWriter, peers []gossip.PeerStats) {
	if len(peers) == 0 {
		return
	}
	p.family("rationality_sync_peer_state", "Replication-loop breaker state per peer, one-hot across healthy/degraded/open.", "gauge")
	for _, sp := range peers {
		for _, state := range []string{gossip.Healthy, gossip.Degraded, gossip.Open} {
			v := "0"
			if sp.State == state {
				v = "1"
			}
			p.sample("rationality_sync_peer_state", []promLabel{{"peer", sp.Address}, {"state", state}}, v)
		}
	}
	p.family("rationality_sync_peer_backoff_seconds", "Remaining backoff window before the peer is due another attempt (0 when due now).", "gauge")
	for _, sp := range peers {
		p.sample("rationality_sync_peer_backoff_seconds", []promLabel{{"peer", sp.Address}}, formatSeconds(sp.Backoff.Seconds()))
	}
	p.family("rationality_sync_peer_attempts_total", "Exchanges actually started against the peer.", "counter")
	for _, sp := range peers {
		p.sample("rationality_sync_peer_attempts_total", []promLabel{{"peer", sp.Address}}, formatUint(sp.Attempts))
	}
	p.family("rationality_sync_peer_failed_total", "Exchange attempts against the peer that errored.", "counter")
	for _, sp := range peers {
		p.sample("rationality_sync_peer_failed_total", []promLabel{{"peer", sp.Address}}, formatUint(sp.Failed))
	}
	p.family("rationality_sync_peer_pulled_records_total", "Records applied from the peer by the replication loop.", "counter")
	for _, sp := range peers {
		p.sample("rationality_sync_peer_pulled_records_total", []promLabel{{"peer", sp.Address}}, formatUint(sp.RecordsReceived))
	}
	p.family("rationality_sync_peer_skipped_total", "Partner selections that passed over the peer without dialing, by reason: backoff window still open, or quarantined by the trust policy.", "counter")
	for _, sp := range peers {
		p.sample("rationality_sync_peer_skipped_total", []promLabel{{"peer", sp.Address}, {"reason", "backoff"}}, formatUint(sp.SkippedBackoff))
		p.sample("rationality_sync_peer_skipped_total", []promLabel{{"peer", sp.Address}, {"reason", "quarantine"}}, formatUint(sp.SkippedQuarantine))
	}
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
	p.family(name, help, "histogram")
	var cum uint64
	for i := 0; i < service.LatencyBuckets; i++ {
		if i < len(lat.Buckets) {
			cum += lat.Buckets[i]
		}
		le := formatSeconds(service.LatencyBucketBound(i).Seconds())
		p.sample(name+"_bucket", []promLabel{{"le", le}}, formatUint(cum))
	}
	p.sample(name+"_bucket", []promLabel{{"le", "+Inf"}}, formatUint(cum))
	p.sample(name+"_sum", nil, formatSeconds(lat.Total.Seconds()))
	p.sample(name+"_count", nil, formatUint(cum))
}

// writeAdmission renders the two-tier admission controller's per-class
// counters and configured budgets, labeled by class. Absent entirely
// when no admission budget is configured (the controller is off).
func writeAdmission(p *promWriter, adm *service.AdmissionStats) {
	if adm == nil {
		return
	}
	classes := []struct {
		name string
		c    service.ClassAdmissionStats
	}{
		{string(service.ClassInteractive), adm.Interactive},
		{string(service.ClassBatch), adm.Batch},
	}
	p.family("rationality_admission_admitted_total", "Admission-controller decisions that admitted the request (a whole batch or stream counts once), by class.", "counter")
	for _, cl := range classes {
		p.sample("rationality_admission_admitted_total", []promLabel{{"class", cl.name}}, formatUint(cl.c.Admitted))
	}
	p.family("rationality_admission_shed_total", "Requests refused with 'admission rejected', by class; the batch class always saturates first.", "counter")
	for _, cl := range classes {
		p.sample("rationality_admission_shed_total", []promLabel{{"class", cl.name}}, formatUint(cl.c.Shed))
	}
	p.family("rationality_admission_shed_items_total", "Verification items inside shed requests, by class (a shed N-item batch counts N).", "counter")
	for _, cl := range classes {
		p.sample("rationality_admission_shed_items_total", []promLabel{{"class", cl.name}}, formatUint(cl.c.ShedItems))
	}
	p.family("rationality_admission_rate", "Configured sustained admission rate in items per second, by class (0 means unlimited).", "gauge")
	for _, cl := range classes {
		p.sample("rationality_admission_rate", []promLabel{{"class", cl.name}}, formatSeconds(cl.c.Rate))
	}
	p.family("rationality_admission_burst", "Configured admission burst in items, by class.", "gauge")
	for _, cl := range classes {
		p.sample("rationality_admission_burst", []promLabel{{"class", cl.name}}, strconv.Itoa(cl.c.Burst))
	}
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
	ready := "1"
	for _, g := range gates {
		if !done[g] {
			ready = "0"
			break
		}
	}
	p.family("rationality_ready", "Whether every readiness gate has been marked: 1 serves traffic, 0 is warming up.", "gauge")
	p.sample("rationality_ready", nil, ready)
	if len(gates) > 0 {
		p.family("rationality_ready_gate", "Per-gate readiness state: 1 once the named gate has been marked.", "gauge")
		for _, g := range gates {
			v := "0"
			if done[g] {
				v = "1"
			}
			p.sample("rationality_ready_gate", []promLabel{{"gate", g}}, v)
		}
	}
	_, err := io.WriteString(w, p.b.String())
	return err
}
