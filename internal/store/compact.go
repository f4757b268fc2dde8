package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rationality/internal/fsx"
	"rationality/internal/identity"
)

// compact rewrites the live set into a fresh snapshot segment and empties
// the tail. It runs on the flusher goroutine (never concurrently with a
// write) and keeps the invariant that at every instant the union of
// snapshot + tail on disk contains every synced record's newest version:
//
//  1. Replay snapshot + tail from disk into the live set, as Open does
//     (recover.go): the in-memory index has only stamps and locations; the
//     verdicts come back off the disk, so compaction memory is O(live),
//     not O(log). Hot records are re-stamped below, which changes their
//     frames, so the rewrite decodes and re-encodes.
//  2. Write the live records, stamps preserved, into verdicts.snap.tmp,
//     pointing each index line at its frame's new home; fsync it.
//  3. Rename over verdicts.snap (atomic on POSIX) and fsync the
//     directory, making the snapshot the durable source of truth.
//  4. Truncate the tail to zero and fsync it.
//
// A crash between 3 and 4 leaves tail records that duplicate snapshot
// records with equal stamps; replay's tie rule makes that harmless. A crash before 3 leaves the old snapshot + full tail —
// exactly the pre-compaction state. Appends queued while compaction runs
// wait in the bounded channel (or are dropped and counted when it
// overflows); verification itself never waits.
func (s *Store) compact() {
	// The tail is synced first, so nothing the rewrite holds is a record a
	// local crash could still lose.
	s.syncTail()
	if s.flushErr != nil {
		return
	}
	rp, err := replay(s.dir)
	if err != nil {
		s.flushErr = err
		return
	}
	// A frame is live only if it is the one the index points at, and the
	// scan stops at a damaged frame, so a line can be left without one.
	// Drop such lines: a line with no frame would fail every delta that
	// wants it, while a missing key is simply re-pulled from a peer.
	live := rp.live
	for key, r := range live {
		if cur, ok := s.index.get(key); !ok || cur.stamp != r.Stamp {
			delete(live, key)
		}
	}
	if len(live) < s.index.len() {
		var lost []identity.Hash
		s.index.each(nil, func(l located) {
			if live[l.key] == nil {
				lost = append(lost, l.key)
			}
		})
		for _, key := range lost {
			s.index.delete(key)
			s.live.Add(^uint64(0))
		}
	}
	cold, hot := s.partitionRetained(live)
	retired := s.retireOldest(live, cold, hot)
	s.refreshRetained(live, hot)
	if err := s.writeSnapshot(live); err != nil {
		s.flushErr = err
		return
	}
	if err := s.tail.Truncate(0); err != nil {
		s.flushErr = fmt.Errorf("store: truncating tail: %w", err)
		return
	}
	if err := s.writeTailHeader(); err != nil {
		s.flushErr = err
		return
	}
	s.compactions.Add(1)
	s.compacted.Add(s.garbage.Swap(0) + retired)
}

// partitionRetained splits the live set into cold records and records
// the Retain hook vouches for (e.g. cache-resident verdicts), each
// sorted oldest append stamp first. One scan and one Retain call per
// record serves both retirement and re-stamping — the hook is a foreign
// lookup (the service's cache probe) the flusher shouldn't pay twice
// per compaction.
func (s *Store) partitionRetained(live map[identity.Hash]*recovered) (cold, hot []*recovered) {
	cold = make([]*recovered, 0, len(live))
	for _, r := range live {
		if s.opts.Retain != nil && s.opts.Retain(r.Key) {
			hot = append(hot, r)
		} else {
			cold = append(cold, r)
		}
	}
	byStamp := func(rs []*recovered) {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Stamp < rs[j].Stamp })
	}
	byStamp(cold)
	byStamp(hot)
	return cold, hot
}

// retireOldest enforces the MaxLive retention bound: when the live set
// exceeds it, surplus records are removed from both the snapshot-to-be
// and the in-memory index — retired history, counted with the compacted
// records. Victim order is oldest append stamp first among the cold
// records; hot (vouched-for) records go last, so a verdict that was
// appended long ago and then served from the cache forever — its stamp
// never refreshes, because cache hits must not touch the store —
// survives retirement as long as it stays hot. With MaxLive equal to
// the owner's cache capacity the hot set always fits the bound, so a
// retained record is in practice never retired.
func (s *Store) retireOldest(live map[identity.Hash]*recovered, cold, hot []*recovered) uint64 {
	if s.opts.MaxLive <= 0 || len(live) <= s.opts.MaxLive {
		return 0
	}
	victims := append(cold[:len(cold):len(cold)], hot...)[:len(live)-s.opts.MaxLive]
	for _, r := range victims {
		delete(live, r.Key)
		s.index.delete(r.Key)
	}
	retired := uint64(len(victims))
	s.live.Add(^(retired - 1)) // atomic subtract; victims is non-empty here
	return retired
}

// refreshRetained re-stamps the surviving hot records, in their existing
// relative order, above every other stamp. A hot record's append stamp
// is frozen at its first verification, so without this the stamp
// ordering that recovery and retirement rely on would rank the most
// valuable records as the most expendable; after each compaction the
// stamps again mean "least valuable first". The tail may still hold the
// old-stamp duplicates — replay collapses them onto the re-stamped
// snapshot copy. The index learns the new stamps when
// writeSnapshot installs the rewritten records' lines.
func (s *Store) refreshRetained(live map[identity.Hash]*recovered, hot []*recovered) {
	for _, r := range hot {
		if _, survived := live[r.Key]; !survived {
			continue // retired above: nothing to re-rank
		}
		r.Stamp = s.nextStamp
		s.nextStamp++
	}
}

// writeSnapshot writes the live set into a temp segment, fsyncs it, and
// atomically renames it over the snapshot, then moves the read handle to
// the new file. Each record's index line is re-pointed at its new frame
// as the frame is written: a rewrite that fails part-way is fatal to the
// store (compact latches the error and every later read refuses; Open
// fails outright), so a half-moved index is never read. Writes go through
// one buffered writer — a large live set must not become one syscall per
// record on the flusher goroutine, which has appends queueing behind it.
func (s *Store) writeSnapshot(live map[identity.Hash]*recovered) error {
	tmpPath := filepath.Join(s.dir, snapshotName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	defer tmp.Close() // no-op after the explicit Close below
	w := bufio.NewWriterSize(tmp, 1<<16)
	if _, err := w.Write(segmentHeader); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	buf := s.buf[:0]
	off := int64(segmentHeaderLen)
	for _, r := range live {
		if buf, _, err = appendRecord(buf[:0], &r.Record); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
		// Same record, new frame — and a new stamp if it was re-ranked. The
		// rest of the line stands (rebuilding it from r would also pin r's
		// freshly decoded origin string, one copy per line per compaction).
		e, _ := s.index.get(r.Key)
		e.stamp, e.loc = r.Stamp, loc{seg: segSnap, n: int32(len(buf)), off: off}
		s.index.put(r.Key, e)
		off += int64(len(buf))
	}
	s.buf = buf[:0]
	if err := w.Flush(); err != nil {
		return fmt.Errorf("store: flushing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	// Compaction truncates the tail only after the snapshot's directory
	// entry is durable: a durable truncation paired with a non-durable
	// rename would lose the whole live set on a crash.
	if err := fsx.SyncDir(s.dir); err != nil {
		return err
	}
	return s.openSnapshot()
}
