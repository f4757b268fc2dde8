package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rationality/internal/identity"
)

// Segment file names inside the store directory. The snapshot holds the
// compacted live set (rewritten atomically via rename); the log is the
// append-only tail that fresh verdicts stream into.
const (
	snapshotName = "verdicts.snap"
	tailName     = "verdicts.log"
	lockName     = "store.lock"
)

// replaySegment streams records out of r, calling fn for each valid one
// with the byte offset and framed length it was read at, and returns the
// byte length of the valid prefix (version header included) plus the
// segment's format version. clean is false when the
// segment ends in a torn or corrupt frame — everything from validBytes on
// is untrustworthy, because record boundaries cannot be re-found past a
// bad length field. A non-nil error is a real I/O failure or an unknown
// segment version, not corruption.
func replaySegment(r io.Reader, fn func(rec *Record, off int64, n int)) (validBytes int64, clean bool, version int, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	version, err = sniffVersion(br)
	if err != nil {
		return 0, false, 0, err
	}
	if version >= segmentV2 {
		validBytes = segmentHeaderLen
	}
	var rec Record
	for {
		n, err := readRecord(br, &rec, version)
		switch err {
		case nil:
			fn(&rec, validBytes, n)
			validBytes += int64(n)
		case io.EOF:
			return validBytes, true, version, nil
		case errTorn:
			return validBytes, false, version, nil
		default:
			return 0, false, version, err
		}
	}
}

// recovered is one replayed record and where its frame sits.
type recovered struct {
	Record
	loc
}

// recovery is what Open learned from the segments on disk.
type recovery struct {
	live     map[identity.Hash]*recovered // latest record per key
	maxStamp uint64
	total    uint64 // valid records seen across snapshot + tail
	salvaged int64  // bytes truncated off a torn tail
	// upgrade is set when a non-empty legacy segment (v1 headerless, v2
	// without the request column, or v3 without the certificate column)
	// was replayed: Open then rewrites the store in the current format
	// before the flusher starts, so v4 is the only format ever appended
	// to.
	upgrade bool
}

// recoverDir replays snapshot + tail from dir, keeping the largest-stamp
// record per key, and salvages a torn tail by truncating it back to its
// longest valid prefix so subsequent appends continue from a trusted
// boundary. A torn snapshot is only read up to its valid prefix (its file
// is left alone — the next compaction rewrites it wholesale); tail records
// are newer than any snapshot loss, so replay continues regardless.
func recoverDir(dir string) (*recovery, error) {
	rec := &recovery{live: make(map[identity.Hash]*recovered)}
	absorb := func(seg uint8) func(*Record, int64, int) {
		return func(r *Record, off int64, n int) {
			rec.total++
			if r.Stamp > rec.maxStamp {
				rec.maxStamp = r.Stamp
			}
			if old, ok := rec.live[r.Key]; ok && old.Stamp > r.Stamp {
				return // an already-seen record is newer; keep it
			}
			rec.live[r.Key] = &recovered{*r, loc{seg: seg, n: int32(n), off: off}}
		}
	}
	noteLegacy := func(version int, size int64) {
		if version < segmentV4 && size > 0 {
			rec.upgrade = true
		}
	}
	if err := replayFile(filepath.Join(dir, snapshotName), absorb(segSnap), func(valid, size int64, version int) error {
		noteLegacy(version, size)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := replayFile(filepath.Join(dir, tailName), absorb(segTail), func(valid, size int64, version int) error {
		noteLegacy(version, size)
		if valid < size {
			rec.salvaged = size - valid
			return os.Truncate(filepath.Join(dir, tailName), valid)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return rec, nil
}

// replayFile replays one segment file if it exists; after the replay,
// onDone (when non-nil) receives the valid-prefix length, the file size
// and the segment's format version, so the caller can truncate a torn
// tail or note a legacy segment for upgrade.
func replayFile(path string, fn func(rec *Record, off int64, n int), onDone func(valid, size int64, version int) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		if onDone != nil {
			return onDone(0, 0, segmentV4)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", filepath.Base(path), err)
	}
	valid, _, version, err := replaySegment(f, fn)
	if err != nil {
		return fmt.Errorf("store: replaying %s: %w", filepath.Base(path), err)
	}
	if onDone != nil {
		return onDone(valid, info.Size(), version)
	}
	return nil
}

// liveRecords flattens the recovered live set, ordered by stamp (oldest
// first), so cache pre-population replays verdicts in write order.
func (r *recovery) liveRecords() []Record {
	out := make([]Record, 0, len(r.live))
	for _, rec := range r.live {
		out = append(out, rec.Record)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stamp < out[j].Stamp })
	return out
}
