package store

import (
	"fmt"

	"rationality/internal/identity"
)

// The log as a replicated data type: per key it holds one standing record,
// a small join-semilattice of (polarity, certificate?, request?, stamp),
// and every write — a fresh local verdict, an audit repair, a stored
// certificate, a record pulled from a peer — reaches the disk through the
// one join below (reads are one replay, recover.go).

// decision is merge's verdict on an incoming version: write it — joined
// with the columns the standing record holds and it lacks (carry*), at the
// store's next stamp if restamp — or refute it as evidence of a lie, or
// neither: the standing record stands and nothing is written.
type decision struct {
	write, refute                    bool
	carryCert, carryRequest, restamp bool
}

// merge ranks in, an incoming version of a key, against cur, the standing
// one (held false: there is none), as index lines — stamp, polarity and
// the two column bits. It is pure — no I/O, no store state — and the only
// code that decides which version of a key stands. A version is proven
// when it is the local authority's own word: in when local says that
// authority is writing it now, cur when a keyed store (own non-empty)
// vouched for the record itself. Verification procedures are
// deterministic, so a locally computed verdict is ground truth here.
//
//	standing      incoming                   outcome
//	-----------   ------------------------   --------------------------------
//	none          any                        write
//	any           proven (a local write)     write, carrying the certificate
//	                                         at equal polarity
//	proven        foreign, other polarity    refute
//	not proven    foreign, other polarity    newer stamp: write, else keep
//	bare          foreign, certified         write, re-stamped if not newer
//	certified     foreign, bare              keep
//	same cert bit foreign                    newer stamp: write, else keep
//
// Every write carries the standing request when it lacks one: the request
// is the key's preimage whatever the verdict, while a certificate vouches
// for one polarity and goes when a local write flips it. The local
// authority's writes always land, even when nothing changes — the fresh
// stamp is what retirement orders by. A certified record outranks a bare
// one whatever the stamps because stamps are per-store counters: a member
// that co-signed a verdict holds the bare record at a stamp of its own that
// says nothing about the certificate issued elsewhere afterwards; such a
// winner is written at the store's next stamp (restamp), because replay
// ranks by stamp alone and must keep it.
func merge(cur idxEntry, held bool, in idxEntry, own identity.PartyID, local bool) decision {
	if !held {
		return decision{write: true}
	}
	d := decision{write: true, carryRequest: cur.hasRequest && !in.hasRequest}
	same := in.accepted == cur.accepted
	switch {
	case local:
		d.carryCert = same && cur.certified && !in.certified
	case !same && own != "" && cur.origin == own:
		return decision{refute: true}
	case !same:
		if in.stamp <= cur.stamp {
			return decision{}
		}
	case in.certified != cur.certified:
		if !in.certified {
			return decision{}
		}
		d.restamp = in.stamp <= cur.stamp
	case in.stamp <= cur.stamp:
		return decision{}
	}
	return d
}

// commit is the store's one writer: it runs r through merge against the
// standing record of its key and, when r wins, frames and appends it —
// joined with the standing record's columns where merge says so — and
// moves the index line and the live/garbage accounting. A local record
// takes the next stamp and this store's origin; a foreign one keeps its
// peer's stamp, so replicas converge on identical (key, stamp) histories,
// and the local clock jumps past it to keep stamps monotonic across the
// merged history. It returns what happened — write only when the frame is
// on the tail — and the line r was ranked against.
//
// After a fatal I/O error the store stops writing — every further record
// counts as Failed, so the operator-visible signal distinguishes a dead
// disk from queue overflow — rather than spinning on a device that already
// refused a write.
func (s *Store) commit(r *Record, local bool) (decision, idxEntry) {
	if s.flushErr != nil {
		s.failed.Add(1)
		return decision{}, idxEntry{}
	}
	if local {
		r.Stamp, r.Origin = s.nextStamp, s.opts.Origin
	}
	cur, held := s.index.get(r.Key)
	d := merge(cur, held, entryFor(r, 0, loc{}), s.opts.Origin, local)
	if !d.write {
		return d, cur
	}
	if d.carryCert || d.carryRequest {
		// An unreadable standing frame has nothing left to carry: r lands
		// as it came.
		if old, err := s.readStanding(r.Key, cur); err == nil {
			if d.carryCert {
				r.Cert = old.Cert
			}
			if d.carryRequest {
				r.Request = old.Request
			}
		}
	}
	if d.restamp {
		r.Stamp = s.nextStamp
	}
	frame, sum, err := appendRecord(s.buf[:0], r)
	s.buf = frame[:0]
	if err != nil {
		s.failed.Add(1) // unencodable verdict: skip the record
		return decision{}, cur
	}
	if r.Stamp >= s.nextStamp {
		s.nextStamp = r.Stamp + 1
	}
	if _, err := s.tail.Write(frame); err != nil {
		s.flushErr = fmt.Errorf("store: appending record: %w", err)
		s.failed.Add(1)
		return decision{}, cur
	}
	if s.index.put(r.Key, entryFor(r, sum, loc{seg: segTail, n: int32(len(frame)), off: s.tailSize})) {
		s.garbage.Add(1)
	} else {
		s.live.Add(1)
	}
	s.tailSize += int64(len(frame))
	s.persisted.Add(1)
	s.sinceSync++
	return d, cur
}

// readStanding reads the standing record of key back from where the index
// says its frame sits, checked like every frame read — only when merge
// found a column to carry, so a log without certificates never reads here.
func (s *Store) readStanding(key identity.Hash, e idxEntry) (Record, error) {
	var rec Record
	frame := make([]byte, e.n)
	err := s.readFrame(&located{key, e}, frame)
	if err == nil {
		_, err = decodeRecord(frame, &rec)
	}
	return rec, err
}
