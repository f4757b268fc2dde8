package store

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

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

// Live is one live record as Open hands it back for cache
// pre-population: its key, its verdict as canonical JSON — byte for byte
// what core.Verdict.AppendJSON writes for it, whatever spelling the log
// holds — that verdict's polarity, and its certificate column (nil when
// uncertified). The stamp, origin and request stay in the log: the
// cache has no use for them.
type Live struct {
	Key      identity.Hash
	Verdict  []byte
	Cert     []byte
	Accepted bool
}

// replaySegment reads a whole segment — size bytes, as its file reports —
// from r and calls fn for each valid frame with its byte offset and its
// verdict's polarity and canonical re-encoding (nil when the stored bytes
// already are canonical, see canonicalVerdict). It returns the bytes read
// and the byte length of their valid prefix (segment header included).
// Everything from validBytes on is untrustworthy — a torn or corrupt
// frame, a verdict that is not one, or a header a crash cut short —
// because record boundaries cannot be re-found past a bad frame. A
// non-nil error is a real I/O failure or a segment that does not open
// with the header (errVersion), not corruption.
func replaySegment(r io.Reader, size int64, fn func(f frame, off int64, accepted bool, canon []byte)) (data []byte, validBytes int64, err error) {
	data = make([]byte, size)
	n, err := io.ReadFull(r, data)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, 0, err
	}
	data = data[:n]
	if err := checkHeader(data[:min(n, segmentHeaderLen)]); err != nil {
		if err == errTorn {
			return data, 0, nil // empty, or a torn header: nothing behind it
		}
		return nil, 0, err
	}
	for off := segmentHeaderLen; ; {
		f, err := parseFrame(data[off:])
		if err != nil {
			return data, int64(off), nil // io.EOF at a clean end, else errTorn
		}
		accepted, canon, ok := canonicalVerdict(f.verdict)
		if !ok {
			return data, int64(off), nil
		}
		fn(f, int64(off), accepted, canon)
		off += f.n
	}
}

// replayed is what one pass over the segment files found.
type replayed struct {
	segs [2][]byte // each segment's bytes as read, by segSnap / segTail
	// canon holds the canonical re-encoding of every indexed frame whose
	// verdict the log spells otherwise; nil while there is none.
	canon    map[identity.Hash][]byte
	maxStamp uint64
	total    uint64 // valid records seen across snapshot + tail
	// tailValid is the tail's longest valid prefix and tailSize its length
	// on disk; they differ when the tail ends in a torn write.
	tailValid, tailSize int64
}

// replay is the store's one reader: it reads snapshot then tail from dir
// whole and folds every valid frame straight into ix, the standing record
// per key. The rule, stated once — the highest stamp wins, and equal
// stamps go to the later frame (a crash between a snapshot's rename and
// the tail's truncation leaves the tail duplicating snapshot records at
// equal stamps). A stamp fold is enough because merge never lets a frame
// reach the disk at a stamp that is not above the standing one's.
// Verdicts are checked, not decoded: the frames stay bytes until Open
// copies the live ones out. Compaction moves frames the index points at
// and never reads the files whole. A torn snapshot is read up to its
// valid prefix (tail records are newer than any snapshot loss); neither
// file is modified here.
func replay(dir string, ix *index) (*replayed, error) {
	rp := &replayed{}
	var origin identity.PartyID // most records share one: convert each once
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
			rp.segs[seg], valid, err = replaySegment(f, info.Size(), func(fr frame, off int64, accepted bool, canon []byte) {
				rp.total++
				rp.maxStamp = max(rp.maxStamp, fr.stamp)
				if cur, held := ix.get(fr.key); held && cur.stamp > fr.stamp {
					return
				}
				if string(fr.origin) != string(origin) {
					origin = identity.PartyID(fr.origin)
				}
				ix.put(fr.key, idxEntry{
					stamp: fr.stamp, origin: origin, sum: contentSum(fr.verdict, fr.cert),
					loc:      loc{seg: uint8(seg), n: int32(fr.n), off: off},
					accepted: accepted, certified: len(fr.cert) > 0, hasRequest: len(fr.request) > 0,
				})
				switch {
				case canon != nil:
					if rp.canon == nil {
						rp.canon = make(map[identity.Hash][]byte)
					}
					rp.canon[fr.key] = canon
				case rp.canon != nil:
					delete(rp.canon, fr.key)
				}
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

// live lists the records ix holds, ordered by stamp (oldest first) so
// cache pre-population replays verdicts in write order. Each verdict and
// certificate is copied out of the segment bytes into one buffer sized to
// fit them all: the segments — requests and superseded frames included —
// are garbage once Open returns.
func (rp *replayed) live(ix *index) []Live {
	// The sort moves stamps beside pointers, never dereferencing one: the
	// index lines sit in a thousand separate buckets.
	type stamped struct {
		stamp uint64
		line  *located
	}
	lines := make([]stamped, 0, ix.len())
	for b := range ix.buckets {
		for i := range ix.buckets[b] {
			lines = append(lines, stamped{ix.buckets[b][i].stamp, &ix.buckets[b][i]})
		}
	}
	slices.SortFunc(lines, func(a, b stamped) int { return cmp.Compare(a.stamp, b.stamp) })
	out := make([]Live, len(lines))
	size := 0
	for i, sl := range lines {
		l := sl.line
		var f frame
		f.split(rp.segs[l.seg][l.off+headerLen : l.off+int64(l.n)])
		verdict, ok := rp.canon[l.key]
		if !ok {
			verdict = f.verdict
		}
		out[i] = Live{Key: l.key, Verdict: verdict, Cert: f.cert, Accepted: l.accepted}
		size += len(verdict) + len(f.cert)
	}
	buf := make([]byte, 0, size)
	carve := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		start := len(buf)
		buf = append(buf, b...)
		return buf[start:len(buf):len(buf)]
	}
	for i := range out {
		out[i].Verdict, out[i].Cert = carve(out[i].Verdict), carve(out[i].Cert)
	}
	return out
}
