package store

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"rationality/internal/fsx"
)

// runBytes bounds one read of adjacent frames during a snapshot rewrite.
const runBytes = 1 << 16

// move is an index line and the stamp its frame takes in the next snapshot.
type move struct {
	located
	to uint64
}

// compact rewrites the live set into a fresh snapshot segment and empties
// the tail. It runs on the flusher goroutine (never concurrently with a
// write) and keeps the invariant that at every instant the union of
// snapshot + tail on disk contains every synced record's newest version:
//
//  1. Rank the index lines — retire the oldest beyond MaxLive, re-stamp
//     the records Retain vouches for — without touching the disk.
//  2. Copy each survivor's frame byte for byte from where its line points
//     into verdicts.snap.tmp, patching the stamp and CRC of a re-stamped
//     one, and re-point the line at the copy; fsync it.
//  3. Rename over verdicts.snap (atomic on POSIX) and fsync the
//     directory, making the snapshot the durable source of truth.
//  4. Truncate the tail to zero and fsync it.
//
// A crash between 3 and 4 leaves tail records that duplicate snapshot
// records with equal stamps; recovery's tie rule makes that harmless. A
// crash before 3 leaves the old snapshot + full tail — exactly the
// pre-compaction state. Appends queued while compaction runs wait in the
// bounded channel (or are dropped and counted when it overflows);
// verification itself never waits.
func (s *Store) compact() {
	// The tail is synced first, so nothing the rewrite holds is a record a
	// local crash could still lose.
	s.syncTail()
	if s.flushErr != nil {
		return
	}
	lines := make([]move, 0, s.index.len())
	s.index.each(nil, func(l located) { lines = append(lines, move{l, l.stamp}) })
	firstHot := s.partitionRetained(lines)
	retired := s.retireOldest(lines)
	survivors := lines[retired:]
	// Re-stamp the surviving hot records, in their existing relative order,
	// above every other stamp. A hot record's append stamp is frozen at its
	// first verification, so without this the stamp ordering that recovery
	// and retirement rely on would rank the most valuable records as the
	// most expendable; after each compaction the stamps again mean "least
	// valuable first".
	for i := max(firstHot-retired, 0); i < len(survivors); i++ {
		survivors[i].to = s.nextStamp
		s.nextStamp++
	}
	if err := s.writeSnapshot(survivors); err != nil {
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
	s.compacted.Add(s.garbage.Swap(0) + uint64(retired))
}

// partitionRetained orders the lines cold first, then the ones the Retain
// hook vouches for (e.g. cache-resident verdicts), each part oldest append
// stamp first, and returns where the vouched-for part begins. One Retain
// call per line serves both retirement and re-stamping — the hook is a
// foreign lookup (the service's cache probe) the flusher shouldn't pay
// twice per compaction.
func (s *Store) partitionRetained(lines []move) (firstHot int) {
	firstHot = len(lines)
	if s.opts.Retain != nil {
		for i := 0; i < firstHot; {
			if s.opts.Retain(lines[i].key) {
				firstHot--
				lines[i], lines[firstHot] = lines[firstHot], lines[i]
			} else {
				i++
			}
		}
	}
	byStamp := func(m *move) uint64 { return m.stamp }
	sortLines(lines[:firstHot], byStamp)
	sortLines(lines[firstHot:], byStamp)
	return firstHot
}

// sortLines orders lines by key. It sorts (key, index) pairs, then moves
// each line once, a permutation cycle at a time: comparing the lines
// themselves would copy two of them per comparison.
func sortLines(lines []move, key func(*move) uint64) {
	type keyed struct {
		key uint64
		i   int
	}
	order := make([]keyed, len(lines))
	for i := range lines {
		order[i] = keyed{key(&lines[i]), i}
	}
	slices.SortFunc(order, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	for start := range order {
		if order[start].i < 0 {
			continue // already placed
		}
		held, at := lines[start], start
		for order[at].i != start {
			next := order[at].i
			lines[at], order[at].i = lines[next], -1
			at = next
		}
		lines[at], order[at].i = held, -1
	}
}

// retireOldest enforces the MaxLive retention bound: when the live set
// exceeds it, the surplus at the front of the partitioned lines leaves the
// in-memory index and the next snapshot — retired history, counted with
// the compacted records. Victim order is oldest append stamp first among
// the cold records; hot (vouched-for) records go last, so a verdict that
// was appended long ago and then served from the cache forever — its stamp
// never refreshes, because cache hits must not touch the store — survives
// retirement as long as it stays hot. With MaxLive equal to the owner's
// cache capacity the hot set always fits the bound, so a retained record
// is in practice never retired.
func (s *Store) retireOldest(lines []move) (retired int) {
	if s.opts.MaxLive <= 0 || len(lines) <= s.opts.MaxLive {
		return 0
	}
	retired = len(lines) - s.opts.MaxLive
	for _, l := range lines[:retired] {
		s.index.delete(l.key)
	}
	s.live.Add(^uint64(retired - 1)) // atomic subtract; retired > 0 here
	return retired
}

// writeSnapshot copies the survivors' frames into a temp segment, fsyncs
// it, and atomically renames it over the snapshot, then moves the read
// handle to the new file. Frames are read in (segment, offset) order
// through one reusable buffer, a run of adjacent frames (at most
// runBytes) per read, and each is checked like every frame read
// (readFrame); their order inside the snapshot carries no meaning, since
// recovery ranks by stamp and each key appears once. A re-stamped frame
// differs from its source only in the stamp and the CRC: the content sum,
// and with it the fingerprints, stand. A line whose frame fails the check
// leaves the index — a line with no frame would fail every delta that
// wants it, while a missing key is simply re-pulled from a peer — and
// every intact frame is kept. Each line is re-pointed at its copy as the
// copy is written: a rewrite that fails part-way is fatal to the store
// (compact latches the error and every later read refuses; Open fails
// outright), so a half-moved index is never read. Writes go through one
// buffered writer — a large live set must not become one syscall per
// record on the flusher goroutine, which has appends queueing behind it.
func (s *Store) writeSnapshot(survivors []move) error {
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
	sortLines(survivors, func(m *move) uint64 { return uint64(m.seg)<<56 | uint64(m.off) })
	buf := s.buf
	off := int64(segmentHeaderLen)
	for i := 0; i < len(survivors); {
		// A run: the frames from i on that sit end to end in one segment,
		// up to runBytes, read with one ReadAt. When that read fails, each
		// frame is read alone, so that each fails alone.
		first := survivors[i].loc
		j, size := i+1, int64(first.n)
		for j < len(survivors) && survivors[j].seg == first.seg && survivors[j].off == first.off+size &&
			size+int64(survivors[j].n) <= runBytes {
			size += int64(survivors[j].n)
			j++
		}
		if cap(buf) < int(size) {
			buf = make([]byte, size)
		}
		run := buf[:size]
		whole := s.readAt(&survivors[i].located, run) == nil
		for ; i < j; i++ {
			m := &survivors[i]
			frame := run[m.off-first.off:][:m.n]
			var err error
			if whole {
				err = m.check(frame)
			} else {
				err = s.readFrame(&m.located, frame)
			}
			if err != nil {
				if !errors.Is(err, errTorn) && !errors.Is(err, io.EOF) {
					return err
				}
				s.index.delete(m.key)
				s.live.Add(^uint64(0))
				continue
			}
			if m.to != m.stamp {
				payload := frame[headerLen:]
				binary.BigEndian.PutUint64(payload[keyLen:], m.to)
				binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
			}
			if _, err := w.Write(frame); err != nil {
				return fmt.Errorf("store: writing snapshot: %w", err)
			}
			e := m.idxEntry
			e.stamp, e.loc = m.to, loc{seg: segSnap, n: m.n, off: off}
			s.index.put(m.key, e)
			off += int64(m.n)
		}
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
