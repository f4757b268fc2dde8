// Package store is the durable verdict log behind the verification
// service's warm start. The paper's verifiers are reputation-bearing
// authorities whose verdicts are durable facts; this package makes them
// literally durable: every fresh verdict is appended to a crash-safe,
// content-addressed segment log, and a restarting service replays the log
// to pre-populate its verdict cache before it accepts traffic — no proof
// is ever re-checked just because the process died.
//
// The design keeps persistence entirely off the verification hot path:
//
//   - Append is one non-blocking send on a bounded channel. It never
//     takes a lock, performs a syscall, or blocks the verify path; when
//     the channel is full the record is dropped (and counted) rather
//     than ever applying backpressure to verification.
//   - A single flusher goroutine owns the tail file. It drains the
//     channel, merges each record with the one its key already holds
//     (merge.go), frames it (length prefix + CRC32C, see segment.go),
//     appends it, and fsyncs every SyncEvery records — and otherwise
//     within syncDelay of the first unsynced record — so one fsync covers
//     a burst, or every record a steady trickle brings in that delay,
//     without leaving a quiet service's records unsynced.
//   - Compaction runs on the same goroutine: once superseded records
//     (same key re-appended after a cache eviction, or duplicates left
//     by an earlier crash) exceed CompactAt, the live set is rewritten
//     into a snapshot segment — built as a temp file, fsynced, then
//     atomically renamed — and the tail is truncated. The rewrite copies
//     each live frame byte for byte from where the index points; only
//     recovery reads the files whole, through one replay (recover.go):
//     snapshot then tail, highest stamp per key winning.
//   - Recovery salvages a torn tail: the replay keeps the longest valid
//     prefix (every record independently CRC-checked) and truncates the
//     rest, so a crash mid-append costs at most the unsynced suffix,
//     never the log.
//
// The store knows nothing about the service; it persists (key, verdict)
// pairs keyed by identity.Hash — the same content address the verdict
// cache uses — and hands them back at Open as the canonical verdict bytes
// the cache holds, never decoded on the way.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
)

// Tuning defaults; zero-valued Options fields fall back to these.
const (
	// DefaultSyncEvery is how many appended records may accumulate before
	// the flusher fsyncs the tail. A crash can lose at most this many
	// acknowledged-but-unsynced verdicts (plus any still queued).
	DefaultSyncEvery = 64
	// DefaultQueueSize is the bounded append queue's capacity. When the
	// flusher falls behind by this many records, further appends are
	// dropped (and counted) instead of blocking verification.
	DefaultQueueSize = 1024
	// DefaultCompactAt is how many superseded (garbage) records may
	// accumulate before the flusher rewrites the live set into a fresh
	// snapshot segment and truncates the tail.
	DefaultCompactAt = 1024
	// syncDelay is how long the first unsynced record waits for the fsync
	// that fewer than SyncEvery followers have not brought on: the group
	// commit window, bounding how long a quiet service's records stay in
	// the page cache.
	syncDelay = 2 * time.Millisecond
)

// Options tunes a Store. The zero value is ready to use.
type Options struct {
	// SyncEvery is the fsync cadence in records; zero or negative means
	// DefaultSyncEvery. One means every record is synced before the next
	// is written (maximum durability, one syscall per verdict). Fewer
	// records are synced within 2 ms of the first of them, so the cadence
	// only governs sustained bursts, never how long an idle service
	// leaves records in the page cache.
	SyncEvery int
	// QueueSize bounds the append queue; zero or negative means
	// DefaultQueueSize.
	QueueSize int
	// CompactAt is the garbage-record threshold that triggers
	// compaction; zero or negative means DefaultCompactAt.
	CompactAt int
	// MaxLive bounds how many live records the store retains; zero or
	// negative means unbounded. When set, compaction retires live
	// records beyond the bound (and compaction also triggers once the
	// live set outgrows MaxLive by CompactAt), so the index memory,
	// compaction I/O and recovery time stay proportional to the bound
	// instead of to the store's whole history. The service sets this to
	// its cache capacity: records beyond it could never be replayed
	// anyway. Retirement order is oldest append stamp first among the
	// records Retain does not vouch for — see Retain.
	MaxLive int
	// Origin is the party ID stamped onto locally appended records as
	// their provenance: the authority that vouches for them. Empty means
	// unattributed (an unkeyed deployment). Records arriving through
	// Ingest keep the origin the caller set on them — the anti-entropy
	// layer stamps the signing peer's identity there.
	Origin identity.PartyID
	// Retain, when non-nil, is consulted during MaxLive retirement: a
	// key it returns true for is kept in preference to one it does not.
	// Append stamps alone are a poor warmth signal — a popular verdict
	// is appended once and then served from the owner's cache forever,
	// never refreshing its stamp — so the owner vouches for the keys
	// that are still hot (the service passes its cache's residency
	// check, which is a lock-free map load). Called only on the store's
	// flusher goroutine, during compaction; it must be safe to call
	// concurrently with the owner's own reads and writes.
	Retain func(identity.Hash) bool
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Persisted counts records appended to the tail segment since Open.
	Persisted uint64 `json:"persisted"`
	// Replayed counts live records recovered from disk at Open. (The
	// verification service overrides this in its own Stats with the
	// count that actually entered its cache, which is smaller when the
	// cache is smaller than the recovered live set.)
	Replayed uint64 `json:"replayed"`
	// Dropped counts appends discarded because the queue was full: lost
	// warmth, never lost correctness.
	Dropped uint64 `json:"dropped"`
	// Failed counts records lost to a write failure — an unencodable
	// verdict or, after the first fatal I/O error (disk full, dead
	// device), every subsequent record: the store stops writing and
	// Close returns the error. A non-zero, growing Failed with a quiet
	// Dropped means the disk is the problem, not the load.
	Failed uint64 `json:"failed"`
	// Ingested counts records absorbed from peers via Ingest (anti-entropy)
	// since Open — applied records only, not offers the merge rule kept
	// the standing record over.
	Ingested uint64 `json:"ingested"`
	// Compactions counts snapshot rewrites since Open; CompactedRecords
	// the records they eliminated — superseded duplicates plus, under a
	// MaxLive bound, retired oldest records.
	Compactions      uint64 `json:"compactions"`
	CompactedRecords uint64 `json:"compactedRecords"`
	// LiveRecords is the current number of distinct keys on disk;
	// GarbageRecords the superseded records awaiting compaction.
	LiveRecords    uint64 `json:"liveRecords"`
	GarbageRecords uint64 `json:"garbageRecords"`
	// SalvagedBytes is how much of a torn tail recovery truncated at
	// Open (zero after a clean shutdown).
	SalvagedBytes uint64 `json:"salvagedBytes"`
}

// Store is a crash-safe, content-addressed verdict log. Append may be
// called from any goroutine; everything that touches the disk happens on
// the store's single flusher goroutine. Create it with Open, release it
// with Close.
type Store struct {
	dir    string
	opts   Options
	tail   *os.File // appended to and read back (frame reads for deltas)
	unlock func()   // releases the directory's exclusive flock

	queue chan Record
	cmds  chan func()   // synchronous flusher-thread commands (sync API)
	quit  chan struct{} // closed by Close: flusher drains and exits
	done  chan struct{} // closed by the flusher on exit
	once  sync.Once

	// Flusher-owned state (no locking: single goroutine).
	index     index    // key -> the standing record's merge line and frame location
	snap      *os.File // read handle on the current snapshot; nil before the first one
	tailSize  int64    // the tail's length: where the next frame lands
	nextStamp uint64
	sinceSync int
	buf       []byte
	flushErr  error // first fatal I/O error; flusher stops appending

	// Counters: written by the flusher (and Open), read by Stats from
	// any goroutine.
	persisted   atomic.Uint64
	replayed    atomic.Uint64
	dropped     atomic.Uint64
	failed      atomic.Uint64
	ingested    atomic.Uint64
	compactions atomic.Uint64
	compacted   atomic.Uint64
	live        atomic.Uint64
	garbage     atomic.Uint64
	salvaged    atomic.Uint64
	syncs       atomic.Uint64 // tail fsyncs since Open
}

// Open recovers the store at dir (creating it if needed) and returns the
// live set, oldest stamp first, for cache pre-population: each record's
// key, canonical verdict bytes, polarity and certificate (Live). The
// returned store is ready for Append: its flusher goroutine is running.
//
// Recovery is one replay (recover.go) of the snapshot segment then the
// tail, folded straight into the index. A torn final record — the
// signature of a crash mid-append — is detected by its CRC and discarded
// along with everything after it; the tail is truncated back to the
// longest valid prefix so appends resume from a trusted boundary. A
// segment in any other layout fails Open with the version error and keeps
// every byte.
func Open(dir string, opts Options) (*Store, []Live, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = DefaultQueueSize
	}
	if opts.CompactAt <= 0 {
		opts.CompactAt = DefaultCompactAt
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	// Exclusive ownership before touching a segment: a second process on
	// the same directory would truncate this one's records at its next
	// compaction. The flock dies with the process, so a crash never
	// wedges the next start.
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		unlock: unlock,
		queue:  make(chan Record, opts.QueueSize),
		cmds:   make(chan func()),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	rp, err := replay(dir, &s.index)
	if err == nil && rp.tailValid < rp.tailSize {
		// Only a tail replay recognised as a segment is ever cut.
		err = os.Truncate(filepath.Join(dir, tailName), rp.tailValid)
	}
	if err != nil {
		unlock()
		return nil, nil, err
	}
	s.tail, err = os.OpenFile(filepath.Join(dir, tailName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		unlock()
		return nil, nil, fmt.Errorf("store: opening tail: %w", err)
	}
	s.tailSize, s.nextStamp = rp.tailValid, rp.maxStamp+1
	live := uint64(s.index.len())
	s.replayed.Store(live)
	s.live.Store(live)
	s.garbage.Store(rp.total - live)
	s.salvaged.Store(uint64(rp.tailSize - rp.tailValid))
	err = s.openSnapshot()
	if err == nil && s.tailSize == 0 {
		err = s.writeTailHeader() // brand new, or salvaged to empty
	}
	if err != nil {
		s.closeFiles()
		unlock()
		return nil, nil, err
	}
	recs := rp.live(&s.index)
	go s.flusher()
	return s, recs, nil
}

// writeTailHeader starts an empty tail with the segment version header and
// makes it durable.
func (s *Store) writeTailHeader() error {
	if _, err := s.tail.Write(segmentHeader); err != nil {
		return fmt.Errorf("store: writing tail header: %w", err)
	}
	if err := s.tail.Sync(); err != nil {
		return fmt.Errorf("store: syncing tail header: %w", err)
	}
	s.tailSize = segmentHeaderLen
	return nil
}

// openSnapshot (re)opens the read handle on the snapshot segment — at Open
// and after every rewrite, since a rename leaves the old handle on the
// replaced file. No snapshot yet is not an error: nothing is indexed there.
func (s *Store) openSnapshot() error {
	f, err := os.Open(filepath.Join(s.dir, snapshotName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: opening snapshot: %w", err)
	}
	if s.snap != nil {
		s.snap.Close()
	}
	s.snap = nil
	if err == nil {
		s.snap = f
	}
	return nil
}

// closeFiles releases the segment handles.
func (s *Store) closeFiles() {
	s.tail.Close()
	if s.snap != nil {
		s.snap.Close()
	}
}

// Append queues one verdict for persistence and reports whether it was
// accepted. It never blocks: when the flusher is behind and the queue is
// full, the record is dropped (counted in Stats.Dropped) — restart warmth
// is best-effort, verification latency is not. Append takes ownership of
// the verdict's Details map and of request — the JSON-encoded
// core.VerifyRequest the verdict was computed from, which is what makes
// the record independently re-verifiable by an auditor — without copying
// either: the caller must not modify them afterwards. request may be nil
// when the caller has no inputs to offer (such a record simply cannot be
// audited).
//
// Records queued after Close starts may or may not be persisted; call
// Append only before Close, as the service's drain ordering guarantees.
func (s *Store) Append(key identity.Hash, v core.Verdict, request []byte) bool {
	select {
	case <-s.quit:
		return false // closed: the flusher is draining or gone
	default:
	}
	select {
	case s.queue <- Record{Key: key, Verdict: v, Request: request}:
		return true
	default:
		s.dropped.Add(1)
		return false
	}
}

// AppendCertified writes a verdict with an aggregate quorum certificate
// attached and reports whether it is on the log: the encoded
// core.Certificate persists in the record's certificate column and
// replicates with it, so a restarted or syncing authority serves the
// certificate as readily as the verdict. Unlike Append it never drops: it
// runs as a flusher command behind every queued record, waits for the
// write — not its fsync, which the flusher runs next, as after a queued
// record — and returns an error (ErrClosed, or the log's write error) when
// the record did not land.
func (s *Store) AppendCertified(key identity.Hash, v core.Verdict, request, cert []byte) error {
	r := Record{Key: key, Verdict: v.Clone(), Request: clone(request), Cert: clone(cert)}
	var written bool
	var writeErr error
	err := s.do(func() {
		d, _ := s.commit(&r, true)
		written, writeErr = d.write, s.flushErr
	})
	switch {
	case err != nil:
		return err
	case writeErr != nil:
		return writeErr
	case !written:
		return fmt.Errorf("store: certified record %s was not written", key)
	}
	return nil
}

// clone copies b, keeping nil and empty as nil.
func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Stats returns a point-in-time snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Persisted:        s.persisted.Load(),
		Replayed:         s.replayed.Load(),
		Dropped:          s.dropped.Load(),
		Failed:           s.failed.Load(),
		Ingested:         s.ingested.Load(),
		Compactions:      s.compactions.Load(),
		CompactedRecords: s.compacted.Load(),
		LiveRecords:      s.live.Load(),
		GarbageRecords:   s.garbage.Load(),
		SalvagedBytes:    s.salvaged.Load(),
	}
}

// Close drains the queue, writes and syncs everything accepted so far,
// and releases the tail file. Idempotent; returns the first fatal I/O
// error the flusher hit, if any.
func (s *Store) Close() error {
	s.once.Do(func() { close(s.quit) })
	<-s.done
	return s.flushErr
}

// flusher is the store's single writer goroutine: it owns the tail file,
// the on-disk index, and the compaction machinery.
func (s *Store) flusher() {
	defer close(s.done)
	defer s.unlock()
	defer s.closeFiles()
	timer := time.NewTimer(syncDelay)
	defer timer.Stop()
	var due <-chan time.Time // the timer's channel while records wait for it
	for {
		if s.sinceSync == 0 {
			due = nil
		} else if due == nil {
			timer.Reset(syncDelay)
			due = timer.C
		}
		select {
		case <-s.quit:
			// Final drain: persist everything accepted before Close.
			for {
				select {
				case r := <-s.queue:
					s.commit(&r, true)
				default:
					s.syncTail()
					return
				}
			}
		case fn := <-s.cmds:
			// Writes first, then the command: any Append accepted before
			// the command was issued is on disk, synced, when the command
			// runs, so the sync API (Manifest/Delta/Ingest) observes a
			// consistent, durable prefix of the append history.
			s.drainPending()
			s.syncTail()
			fn()
			// A command that wrote has already released its caller; its
			// fsync and any compaction it made due run now, as after a
			// queued record.
			s.syncTail()
			s.maybeCompact()
		case r := <-s.queue:
			s.handleRecord(&r)
			s.drainPending()
		case <-due:
			s.syncTail()
		}
	}
}

// drainPending handles every currently queued record without blocking.
// handleRecord keeps the sync cadence honest inside the burst, so one
// fsync covers at most SyncEvery records even under a load that never
// lets the queue run dry. The leftovers are not synced here: the flusher
// loop's timer syncs them within syncDelay of the first, so a trickle of
// one record per wake-up shares an fsync instead of paying one each, and
// a quiet service never leaves records in the page cache waiting for
// record number SyncEvery to show up.
func (s *Store) drainPending() {
	for {
		select {
		case r := <-s.queue:
			s.handleRecord(&r)
		default:
			return
		}
	}
}

// handleRecord commits one local record and then enforces the maintenance
// cadences. Both checks run after every record — not just when the queue
// goes idle — so sustained traffic cannot starve the SyncEvery durability
// contract or defer compaction forever.
func (s *Store) handleRecord(r *Record) {
	s.commit(r, true)
	if s.sinceSync >= s.opts.SyncEvery {
		s.syncTail()
	}
	s.maybeCompact()
}

// maybeCompact runs a compaction when superseded records pile up — or,
// with a MaxLive bound, when the live set outgrows it by a compaction's
// worth, so an all-distinct-keys workload (which creates no garbage)
// still gets its history retired on the same amortized cadence. Local
// appends and anti-entropy merges share this single trigger.
func (s *Store) maybeCompact() {
	if s.garbage.Load() >= uint64(s.opts.CompactAt) ||
		(s.opts.MaxLive > 0 && s.live.Load() >= uint64(s.opts.MaxLive+s.opts.CompactAt)) {
		s.compact()
	}
}

// Provenance summarizes the live set by vouching authority: how many
// on-disk records each origin party ID accounts for (the empty ID groups
// unattributed records — unkeyed deployments and unsigned transfers).
// It runs as a flusher command at anti-entropy cadence, so the counts are
// exact with respect to every accepted Append, never racing the writer.
func (s *Store) Provenance() (map[identity.PartyID]uint64, error) {
	var m map[identity.PartyID]uint64
	err := s.do(func() {
		m = make(map[identity.PartyID]uint64)
		s.index.each(nil, func(l located) { m[l.origin]++ })
	})
	return m, err
}

// syncTail fsyncs the tail segment if there are unsynced records.
func (s *Store) syncTail() {
	if s.sinceSync == 0 || s.flushErr != nil {
		return
	}
	if err := s.tail.Sync(); err != nil {
		s.flushErr = fmt.Errorf("store: syncing tail: %w", err)
		return
	}
	s.sinceSync = 0
	s.syncs.Add(1)
}
