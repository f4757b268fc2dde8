package store

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"rationality/internal/identity"
)

// Fingerprint support: a replication exchange wants to know "do we already
// agree, and if not, where?" without shipping a manifest. The index keeps
// one fingerprint per key-space bucket (index.go), so Fingerprints costs
// O(buckets) and never a pass over the live set.
// Everything here runs on the flusher goroutine via the command channel,
// like the rest of the sync surface.

const (
	// minWidth is the narrowest fingerprint set an exchange trades: one
	// bitmap byte's worth of buckets.
	minWidth = 8
	// keysPerBucket is the live-key count per traded bucket the width is
	// chosen for: enough buckets that a handful of changed keys drags only
	// a handful of unchanged neighbours into the scoped manifest, few
	// enough that an in-sync probe stays a fraction of a manifest.
	keysPerBucket = 4
)

// Scope is a bitmap over key-space buckets, one bit per bucket (bit i of
// byte i/8, least significant first), that restricts a manifest or a delta
// to the keys in the set buckets. Its length fixes the width: 8·len
// buckets, a power of two from 8 to 1024. The nil Scope is the whole key
// space.
type Scope []byte

// Check rejects a bitmap whose length is not a width the store trades: a
// scope that arrived from outside the program must pass it before
// Contains is asked anything.
func (sc Scope) Check() error {
	if sc != nil && !validWidth(len(sc)*8) {
		return fmt.Errorf("store: scope bitmap of %d bytes is not a power-of-two width between %d and %d buckets", len(sc), minWidth, fpBuckets)
	}
	return nil
}

// validWidth reports whether n is a bucket count an exchange may trade.
func validWidth(n int) bool {
	return n >= minWidth && n <= fpBuckets && n&(n-1) == 0
}

// has reports whether bucket i is in a non-nil scope.
func (sc Scope) has(i int) bool { return sc[i>>3]&(1<<(i&7)) != 0 }

// Contains reports whether key falls in one of the scope's buckets.
func (sc Scope) Contains(key identity.Hash) bool {
	return sc == nil || sc.has(bucketOf(key, len(sc)*8))
}

// Fingerprints returns the live set's bucket fingerprints in wire form:
// eight big-endian bytes per bucket, at a width chosen from the live count
// (about keysPerBucket keys a bucket, between 8 and 1024 buckets) so a
// near-empty store trades 64 bytes and a large one keeps its scoped
// manifests short. A peer answers with Differing.
func (s *Store) Fingerprints() ([]byte, error) {
	var out []byte
	err := s.do(func() {
		width := minWidth
		for width < fpBuckets && width*keysPerBucket < s.index.len() {
			width *= 2
		}
		out = s.index.folded(width)
	})
	return out, err
}

// Differing compares a peer's Fingerprints with this store's, folded to
// the peer's width, and returns the scope of buckets that disagree — nil
// when every bucket agrees and the two live sets hold the same content.
func (s *Store) Differing(peer []byte) (Scope, error) {
	width := len(peer) / 8
	if len(peer)%8 != 0 || !validWidth(width) {
		return nil, fmt.Errorf("store: %d fingerprint bytes are not a power-of-two width between %d and %d buckets", len(peer), minWidth, fpBuckets)
	}
	scope := make(Scope, width/8)
	differ := false
	err := s.do(func() {
		mine := s.index.folded(width)
		for i := 0; i < width; i++ {
			if !bytes.Equal(mine[8*i:8*i+8], peer[8*i:8*i+8]) {
				scope[i>>3] |= 1 << (i & 7)
				differ = true
			}
		}
	})
	if err != nil || !differ {
		return nil, err
	}
	return scope, nil
}

// readFrames reads the given live frames straight off their recorded
// locations into one wire blob — the version header, then the frames
// oldest stamp first, byte for byte as the segments hold them, which is
// exactly what EncodeRecords would produce — and returns it with the
// record count. Every frame is checked (length, CRC, key, stamp) before
// anything is returned: one bad frame fails the whole read, because a
// store whose live frames do not match its index must not vouch for any
// of them. The tail is synced first: a record handed to a peer must not
// be one a local crash could still lose. Runs on the flusher goroutine.
func (s *Store) readFrames(want []located) ([]byte, int, error) {
	if len(want) == 0 {
		return nil, 0, nil
	}
	s.syncTail()
	if s.flushErr != nil {
		return nil, 0, s.flushErr
	}
	slices.SortFunc(want, func(a, b located) int {
		return cmp.Or(cmp.Compare(a.stamp, b.stamp), bytes.Compare(a.key[:], b.key[:]))
	})
	size := segmentHeaderLen
	for i := range want {
		size += int(want[i].n)
	}
	buf := make([]byte, segmentHeaderLen, size)
	copy(buf, segmentHeader)
	for i := range want {
		frame := buf[len(buf) : len(buf)+int(want[i].n)]
		if err := s.readFrame(&want[i], frame); err != nil {
			return nil, 0, err
		}
		buf = buf[:len(buf)+len(frame)]
	}
	return buf, len(want), nil
}

// readFrame reads one live frame into frame (which must be w.n long) from
// the location its index line records, and checks it: length, CRC, key and
// stamp (checkFrame). Runs on the flusher goroutine.
func (s *Store) readFrame(w *located, frame []byte) error {
	if err := s.readAt(w, frame); err != nil {
		return err
	}
	return w.check(frame)
}

// readAt fills p from w's segment, starting at w's frame: one frame, or a
// run of adjacent frames beginning with w's.
func (s *Store) readAt(w *located, p []byte) error {
	f, name := s.tail, tailName
	if w.seg == segSnap {
		f, name = s.snap, snapshotName
	}
	if f == nil {
		return fmt.Errorf("store: live record %s is indexed in a missing %s", w.key, name)
	}
	if _, err := f.ReadAt(p, w.off); err != nil {
		return fmt.Errorf("store: reading live record %s at %s+%d: %w", w.key, name, w.off, err)
	}
	return nil
}

// check is checkFrame of w's frame, its error naming where the frame sits.
func (w *located) check(frame []byte) error {
	if err := checkFrame(frame, w.key, w.stamp); err != nil {
		name := tailName
		if w.seg == segSnap {
			name = snapshotName
		}
		return fmt.Errorf("store: live record %s at %s+%d: %w", w.key, name, w.off, err)
	}
	return nil
}

// Records returns the live copies of the requested keys as a wire blob
// (see readFrames) plus the record count, oldest stamp first. Keys the
// store does not hold live are skipped silently — a rumor can outlive its
// record's supersession.
func (s *Store) Records(keys []identity.Hash) ([]byte, int, error) {
	var framed []byte
	var n int
	var readErr error
	err := s.do(func() {
		want := make([]located, 0, len(keys))
		seen := make(map[identity.Hash]struct{}, len(keys))
		for _, k := range keys {
			if e, ok := s.index.get(k); ok {
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					want = append(want, located{k, e})
				}
			}
		}
		framed, n, readErr = s.readFrames(want)
	})
	if err != nil {
		return nil, 0, err
	}
	return framed, n, readErr
}
