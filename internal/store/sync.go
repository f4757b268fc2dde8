package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"rationality/internal/identity"
)

// Anti-entropy support: a quorum of verifiers converges on shared verdict
// history by exchanging manifests (key -> newest stamp) and deltas (the
// framed records one side has and the other lacks). Everything here runs
// on the store's flusher goroutine via the command channel, so the
// exported calls are safe from any goroutine yet never race the writer.

// ErrClosed is returned by the synchronous store API (Manifest, Delta,
// Ingest) after Close.
var ErrClosed = errors.New("store: closed")

// do runs fn on the flusher goroutine and waits for it to finish. After
// Close the flusher only drains its append queue and exits, so do fails
// with ErrClosed instead of blocking forever.
func (s *Store) do(fn func()) error {
	done := make(chan struct{})
	select {
	case s.cmds <- func() { fn(); close(done) }:
		// cmds is unbuffered, so a completed send means the flusher holds
		// the closure and runs it to completion before it can exit; done
		// is therefore guaranteed to close, and waiting on it alone can
		// neither hang nor misreport a command that did run as ErrClosed.
		<-done
		return nil
	case <-s.done:
		return ErrClosed
	case <-s.quit:
		return ErrClosed
	}
}

// RecordInfo is one manifest line: the newest stamp a store holds for a
// key, the checksum of the verdict content at that stamp, and whether a
// quorum certificate rides the record. The sum is what keeps anti-entropy
// quiescent under stamp churn — compaction re-ranks retained records with
// fresh stamps, and without a content check every re-rank would look like
// new data to every peer, making converged replicas re-transfer their
// whole hot sets forever. The certified bit feeds the merge rule
// (supersedes).
type RecordInfo struct {
	Stamp     uint64
	Sum       uint32
	Certified bool
}

// supersedes is the merge rule, the one place that decides whether an
// incoming version of a key replaces the current one — Delta asks it
// whether a record is worth sending, Ingest whether to apply it. While
// both versions carry the same verdict polarity, a certified record
// outranks an uncertified one whatever the stamps: stamps are per-store
// counters, and a member that co-signed a verdict holds the bare record
// at a stamp of its own that says nothing about the certificate issued
// elsewhere afterwards. Otherwise the newer stamp wins. (Delta sees only
// the peer's manifest line, which has no polarity, and passes true: a
// certificate the receiver then finds contradicts its copy's polarity
// falls back to stamps there.)
func supersedes(inStamp uint64, inCertified bool, curStamp uint64, curCertified, samePolarity bool) bool {
	if samePolarity && inCertified != curCertified {
		return inCertified
	}
	return inStamp > curStamp
}

// Manifest returns a snapshot of the store's on-disk index restricted to
// scope (nil: all of it): the newest stamp, content sum and certified bit
// per live key. It is the "what I have" half of an anti-entropy exchange —
// a peer answers it with the records this store is missing.
func (s *Store) Manifest(scope Scope) (map[identity.Hash]RecordInfo, error) {
	if err := scope.Check(); err != nil {
		return nil, err
	}
	var m map[identity.Hash]RecordInfo
	err := s.do(func() {
		n := s.index.len()
		if scope != nil {
			n = 0 // a scoped manifest is a sliver; let it grow
		}
		m = make(map[identity.Hash]RecordInfo, n)
		s.index.each(scope, func(l located) {
			m[l.key] = RecordInfo{Stamp: l.stamp, Sum: l.sum, Certified: l.certified}
		})
	})
	return m, err
}

// Delta returns, as a wire blob plus a record count, this store's live
// records inside scope (nil: everywhere) that the given manifest is
// missing, or holds different content for in a version this store's
// supersedes — ordered oldest stamp first. A peer whose copy has an older
// stamp but the same content sum needs nothing: the stamp gap is
// compaction re-ranking, not data, and sending it would only bounce
// identical verdicts between replicas forever. The index is bucketed and
// knows where every live frame sits, so the cost is a walk over the
// in-scope buckets' index lines plus one checked read per record shipped
// (readFrames) — the blob is the segments' own bytes, never decoded or
// re-encoded here.
func (s *Store) Delta(have map[identity.Hash]RecordInfo, scope Scope) ([]byte, int, error) {
	if err := scope.Check(); err != nil {
		return nil, 0, err
	}
	var framed []byte
	var n int
	var readErr error
	err := s.do(func() {
		var want []located
		s.index.each(scope, func(l located) {
			peer, ok := have[l.key]
			if !ok || (peer.Sum != l.sum && supersedes(l.stamp, l.certified, peer.Stamp, peer.Certified, true)) {
				want = append(want, l)
			}
		})
		framed, n, readErr = s.readFrames(want)
	})
	if err != nil {
		return nil, 0, err
	}
	return framed, n, readErr
}

// Refutation is ingest-time evidence of a lying voucher: an incoming
// record whose verdict polarity contradicts the verdict this store's own
// authority computed and vouched for locally. The record was refused —
// deterministic procedures make local execution ground truth, so
// newest-stamp-wins must not let a peer's stamp overwrite it — and the
// contradiction is returned to the owner, who charges the record's
// provenance through the trust layer.
type Refutation struct {
	// Record is the refused incoming record; its Origin names the peer
	// that vouched for it.
	Record Record
	// LocalAccepted is the polarity of the locally vouched verdict the
	// record contradicts.
	LocalAccepted bool
}

// Ingest merges records pulled from a peer into the log: per key the
// merge rule (supersedes) decides, stale offers are skipped, and applied
// records keep the peer's stamp so repeated exchanges converge on
// identical histories — except a certificate that wins against a newer
// local stamp, which is re-stamped here so recovery's newest-stamp-wins
// replay keeps it.
// Under a MaxLive bound, *new* keys are declined once the live set is at
// the bound — absorbing them would only hand the next compaction more
// history to retire, an ingest-retire ping-pong that would otherwise
// repeat every sync round — while updates to keys the store already
// holds always land.
//
// One class of records is refused regardless of stamp: a record whose
// verdict polarity contradicts a verdict this store's own authority
// (Options.Origin) verified locally. Verification procedures are
// deterministic, so the local execution is ground truth and the incoming
// record is evidence of a lying voucher, not newer data. Such records
// come back as Refutations so the owner can charge the peer that vouched
// for them.
//
// It returns the records actually applied (stamp order preserved from
// the input), which the owner should install in its caches, the
// refutations, and surfaces the store's fatal write error when one is
// set: a dead disk must fail the pull loudly, not silently no-op it
// forever. The applied suffix is synced before Ingest returns — a merged
// record is durable, not parked in the flusher queue.
func (s *Store) Ingest(recs []Record) ([]Record, []Refutation, error) {
	var applied []Record
	var refuted []Refutation
	var writeErr error
	err := s.do(func() {
		for i := range recs {
			r := &recs[i]
			cur, exists := s.index.get(r.Key)
			if exists && s.opts.Origin != "" && cur.origin == s.opts.Origin &&
				cur.accepted != r.Verdict.Accepted {
				// Contradicts our own locally verified verdict: refuse it
				// whatever its stamp, and report the lie.
				refuted = append(refuted, Refutation{Record: *r, LocalAccepted: cur.accepted})
				continue
			}
			if exists {
				if !supersedes(r.Stamp, len(r.Cert) > 0, cur.stamp, cur.certified, cur.accepted == r.Verdict.Accepted) {
					continue // the local copy stands
				}
				if r.Stamp <= cur.stamp {
					r.Stamp = s.nextStamp // a certificate outranking a newer bare copy
				}
			}
			if !exists && s.opts.MaxLive > 0 && s.live.Load() >= uint64(s.opts.MaxLive) {
				continue // at the retention bound: don't absorb history just to retire it
			}
			s.writeStamped(r)
			if s.flushErr == nil {
				applied = append(applied, *r)
				s.ingested.Add(1)
			}
		}
		s.syncTail()
		// A large merge piles up garbage and history just like a burst of
		// appends; hold it to the same compaction cadence.
		s.maybeCompact()
		writeErr = s.flushErr
	})
	if err != nil {
		return nil, nil, err
	}
	return applied, refuted, writeErr
}

// EncodeRecords frames records for the wire with the exact segment-file
// layout (version header, then length prefix + CRC32C per record — see
// segment.go), so a sync delta enjoys the same per-record integrity check
// as the log itself and the receiver can reject a corrupted transfer
// record-by-record. The leading header makes the blob self-describing:
// DecodeRecords on the far side knows which payload layout it is parsing
// without out-of-band agreement.
func EncodeRecords(recs []Record) ([]byte, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	buf := append([]byte(nil), segmentHeader...)
	var err error
	for i := range recs {
		if buf, _, err = appendRecord(buf, &recs[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeRecords parses a framed blob produced by EncodeRecords, verifying
// every record's checksum. A blob without the version header is read as
// the legacy v1 layout (a pre-federation peer's delta: records come back
// with no Origin), a v2-headed blob as the pre-audit layout (no Request
// column), and a v3-headed blob as the pre-certificate layout (no Cert
// column), so an upgraded verifier keeps pulling successfully from
// not-yet-upgraded peers during a rolling upgrade. Compatibility is
// one-directional: an older DecodeRecords cannot parse a newer header,
// so old requesters pulling from an upgraded responder fail with a
// corruption error until they upgrade too — upgrade the pullers first.
// Unlike segment recovery — which salvages the valid prefix of a torn
// tail — a short or corrupt wire delta is an error: nothing was crashed
// here, so damage means a bad peer or transport.
func DecodeRecords(data []byte) ([]Record, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	version, err := sniffVersion(br)
	if err != nil {
		return nil, fmt.Errorf("store: sync delta: %w", err)
	}
	var out []Record
	for {
		var rec Record
		if _, err := readRecord(br, &rec, version); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("store: corrupt sync delta after %d records: %w", len(out), err)
		}
		out = append(out, rec)
	}
}
