package store

import (
	"encoding/binary"
	"hash/fnv"

	"rationality/internal/identity"
)

// Gossip support: a push-pull round wants to know "do we already agree?"
// without shipping a manifest, and "give me these exact records" without
// computing a full delta. Summary answers the first with one fixed-size
// digest; Records answers the second for rumor pushes. Both run on the
// flusher goroutine via the command channel, like the rest of the sync
// surface.

// Summary is a store's content fingerprint: the live-key count and an
// order-independent digest over every live (key, content sum) pair. Two
// stores with equal summaries hold the same verdict content with
// overwhelming probability; stamps are deliberately excluded — compaction
// re-ranks retained records with fresh stamps, and a digest that moved on
// every re-rank would make converged replicas look divergent forever.
type Summary struct {
	// Count is the number of live keys.
	Count int `json:"count"`
	// Digest folds every live record's key and content sum into one
	// 64-bit value, XOR-combined so iteration order cannot matter.
	Digest uint64 `json:"digest"`
}

// Summary fingerprints the live set. Cost is one pass over the in-memory
// index — no disk reads — so a gossip round can afford one per exchange.
func (s *Store) Summary() (Summary, error) {
	var sum Summary
	err := s.do(func() {
		sum.Count = len(s.index)
		var buf [36]byte
		for key, e := range s.index {
			copy(buf[:32], key[:])
			binary.LittleEndian.PutUint32(buf[32:], e.sum)
			h := fnv.New64a()
			_, _ = h.Write(buf[:])
			sum.Digest ^= h.Sum64()
		}
	})
	return sum, err
}

// Records materializes the live copies of the requested keys, oldest
// stamp first, reading the verdict bodies back off the segment files
// (the index holds only stamps and sums). Keys the store does not hold
// live are skipped silently — a rumor can outlive its record's
// supersession. The tail is synced first, matching Delta: a record
// handed to a peer must not be one a local crash could still lose.
func (s *Store) Records(keys []identity.Hash) ([]Record, error) {
	var out []Record
	var scanErr error
	err := s.do(func() {
		need := make(map[identity.Hash]bool, len(keys))
		for _, k := range keys {
			if _, ok := s.index[k]; ok {
				need[k] = true
			}
		}
		if len(need) > 0 {
			out, scanErr = s.liveRecords(need)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, scanErr
}
