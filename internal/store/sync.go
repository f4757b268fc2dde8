package store

import (
	"errors"
	"fmt"

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

// RecordInfo is one manifest line: what a peer's merge needs of a standing
// record to decide whether its own copy would replace it. The sum is what
// keeps anti-entropy quiescent under stamp churn — compaction re-ranks
// retained records with fresh stamps, and without a content check every
// re-rank would look like new data to every peer, making converged replicas
// re-transfer their whole hot sets forever. Polarity is carried as Rejected
// so the zero value is the common case.
type RecordInfo struct {
	Stamp     uint64
	Sum       uint32
	Certified bool
	Rejected  bool
}

// Manifest returns a snapshot of the store's on-disk index restricted to
// scope (nil: all of it): one RecordInfo per live key. It is the "what I
// have" half of an anti-entropy exchange — a peer answers it with the
// records this store is missing.
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
			m[l.key] = RecordInfo{Stamp: l.stamp, Sum: l.sum, Certified: l.certified, Rejected: !l.accepted}
		})
	})
	return m, err
}

// Delta returns, as a wire blob plus a record count, this store's live
// records inside scope (nil: everywhere) whose content the given manifest
// lacks and that the peer's merge would take over what it holds — the same
// merge, asked from the sending side — ordered oldest stamp first. Equal
// content at another stamp never ships: the gap is compaction re-ranking,
// not data, and would bounce whole hot sets between converged replicas
// after every compaction, forever. The manifest cannot say
// which verdicts the peer proved itself, so a newer-stamped contradiction
// of one ships and is refuted there: that is how a lie gets charged. The
// index is bucketed and knows where every live frame sits, so the cost is
// a walk over the in-scope buckets' index lines plus one checked read per
// record shipped (readFrames) — the blob is the segments' own bytes, never
// decoded or re-encoded here.
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
			peer, held := have[l.key]
			standing := idxEntry{stamp: peer.Stamp, accepted: !peer.Rejected, certified: peer.Certified}
			if !(held && peer.Sum == l.sum) && merge(standing, held, l.idxEntry, "", false).write {
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
// authority computed and vouched for locally. merge refused it, and the
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

// Ingest merges records pulled from a peer into the log, each through the
// store's one writer (commit, merge.go). Records the merge keeps the
// standing one over are skipped; records that contradict a verdict this
// store's own authority (Options.Origin) verified locally come back as
// Refutations so the owner can charge the peer that vouched for them.
// Under a MaxLive bound, *new* keys are declined once the live set is at
// the bound — absorbing them would only hand the next compaction more
// history to retire, an ingest-retire ping-pong that would otherwise
// repeat every sync round — while updates to keys the store already
// holds always land.
//
// It returns the records actually applied, as written (joined with the
// standing record's request where they lacked one, re-stamped where merge
// said so) in input order, which the owner should install in its caches,
// the refutations, and surfaces the store's fatal write error when one is
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
			if _, held := s.index.get(r.Key); !held && s.opts.MaxLive > 0 && s.live.Load() >= uint64(s.opts.MaxLive) {
				continue // at the retention bound: don't absorb history just to retire it
			}
			switch d, cur := s.commit(r, false); {
			case d.refute:
				refuted = append(refuted, Refutation{Record: *r, LocalAccepted: cur.accepted})
			case d.write:
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
// record-by-record.
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
// every record's checksum. A blob that does not open with the segment
// header is refused (errVersion). The blob is untrusted — it is whatever a
// peer sent — so a frame whose length prefix claims more than the blob has
// left is refused before anything is allocated for it; each record owns a
// copy of its payload, never the caller's buffer. Unlike segment recovery
// — which salvages the valid prefix of a torn tail — a short or corrupt
// wire delta is an error: nothing was crashed here, so damage means a bad
// peer or transport.
func DecodeRecords(data []byte) ([]Record, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if err := checkHeader(data[:min(len(data), segmentHeaderLen)]); err != nil {
		return nil, fmt.Errorf("store: sync delta: %w", err)
	}
	var out []Record
	for off := segmentHeaderLen; off < len(data); {
		var rec Record
		n, err := decodeRecord(data[off:], &rec)
		if err != nil {
			return nil, fmt.Errorf("store: corrupt sync delta after %d records: %w", len(out), err)
		}
		out = append(out, rec)
		off += n
	}
	return out, nil
}
