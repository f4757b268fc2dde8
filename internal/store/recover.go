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
// with its content sum, byte offset and framed length, and returns the byte
// length of the valid prefix (segment header included). Everything from
// validBytes on is untrustworthy — a torn or corrupt frame, or a header a
// crash cut short — because record boundaries cannot be re-found past a
// bad length field. A non-nil error is a real I/O failure or a segment
// that does not open with the header (errVersion), not corruption.
func replaySegment(r io.Reader, fn func(rec *Record, sum uint32, off int64, n int)) (validBytes int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(segmentHeaderLen)
	if err != nil && err != io.EOF {
		return 0, err
	}
	if err := checkHeader(head); err != nil {
		if err == errTorn {
			return 0, nil // empty, or a torn header: nothing behind it
		}
		return 0, err
	}
	br.Discard(segmentHeaderLen)
	validBytes = segmentHeaderLen
	var rec Record
	for {
		n, sum, err := readRecord(br, &rec, maxPayload)
		switch err {
		case nil:
			fn(&rec, sum, validBytes, n)
			validBytes += int64(n)
		case io.EOF, errTorn:
			return validBytes, nil
		default:
			return 0, err
		}
	}
}

// recovered is one replayed record, its frame's location and content sum.
type recovered struct {
	Record
	loc
	sum uint32
}

// replayed is what one pass over the segment files found.
type replayed struct {
	live     map[identity.Hash]*recovered // the standing record per key
	maxStamp uint64
	total    uint64 // valid records seen across snapshot + tail
	// tailValid is the tail's longest valid prefix and tailSize its length
	// on disk; they differ when the tail ends in a torn write.
	tailValid, tailSize int64
}

// replay is the store's one reader: it folds snapshot then tail from dir
// into the standing record per key. The rule, stated once — the highest
// stamp wins, and equal stamps go to the later frame (a crash between a
// snapshot's rename and the tail's truncation leaves the tail duplicating
// snapshot records at equal stamps). A stamp fold is enough because merge
// never lets a frame reach the disk at a stamp that is not above the
// standing one's. Open builds the index from the result; compaction moves
// frames the index points at and never reads the files whole. A torn
// snapshot is read up to its valid prefix (tail records are newer than any
// snapshot loss); neither file is modified here.
func replay(dir string) (*replayed, error) {
	rp := &replayed{live: make(map[identity.Hash]*recovered)}
	for seg, name := range [...]string{segSnap: snapshotName, segTail: tailName} {
		f, err := os.Open(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("store: opening %s: %w", name, err)
		}
		var valid int64
		info, err := f.Stat()
		if err == nil {
			valid, err = replaySegment(f, func(r *Record, sum uint32, off int64, n int) {
				rp.total++
				if r.Stamp > rp.maxStamp {
					rp.maxStamp = r.Stamp
				}
				if old, ok := rp.live[r.Key]; ok && old.Stamp > r.Stamp {
					return
				}
				rp.live[r.Key] = &recovered{*r, loc{seg: uint8(seg), n: int32(n), off: off}, sum}
			})
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: replaying %s: %w", name, err)
		}
		if seg == segTail {
			rp.tailValid, rp.tailSize = valid, info.Size()
		}
	}
	return rp, nil
}

// records flattens the live set, ordered by stamp (oldest first), so cache
// pre-population replays verdicts in write order.
func (rp *replayed) records() []Record {
	out := make([]Record, 0, len(rp.live))
	for _, rec := range rp.live {
		out = append(out, rec.Record)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stamp < out[j].Stamp })
	return out
}
