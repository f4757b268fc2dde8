package store

import (
	"encoding/binary"
	"math/bits"

	"rationality/internal/identity"
)

// fpBuckets fixes the resolution the index is kept at: the leading ten key
// bits select one of 1024 buckets.
const fpBuckets = 1 << 10

// index is the in-memory view of the live set — one line per key — kept
// in key-space buckets (bucket = the key's leading bits), each with a
// fingerprint: the XOR-fold of a per-key hash over key and content sum,
// updated at every mutation. The buckets are what let a scoped manifest or
// delta walk only the slice of the key space two replicas disagree on, and
// the fingerprints what lets them find that slice without a manifest; both
// cost nothing to keep beyond one small hash per write. Stamps stay out of
// the fingerprints — compaction re-ranks retained records with fresh
// stamps, and a fingerprint that moved on every re-rank would make
// converged replicas look divergent forever. Flusher-owned, like
// everything it indexes.
//
// A bucket is a plain slice searched linearly. Keys are SHA-256 outputs,
// so the leading bits already are the hash and the buckets stay even: the
// retention bound the service sets (MaxLive = cache capacity) puts a
// handful of lines in each — four at the benchmark's 4096 — where a scan
// beats hashing 32 bytes, a walk is contiguous memory, and 1024 slices
// cost less than one map of the same lines did.
type index struct {
	buckets [fpBuckets][]located
	fp      [fpBuckets]uint64
	n       int
}

// located pairs a key with its index line.
type located struct {
	key identity.Hash
	idxEntry
}

// bucketOf is a key's bucket at the given width (a power of two up to
// fpBuckets): its leading log2(width) bits.
func bucketOf(key identity.Hash, width int) int {
	return int(binary.BigEndian.Uint16(key[:2])) >> (17 - bits.Len(uint(width)))
}

// keyHash is the per-key value the fingerprints fold: FNV-64a over the key
// and its little-endian content sum.
func keyHash(key identity.Hash, sum uint32) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h = (h ^ uint64(b)) * prime
	}
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(byte(sum>>(8*i)))) * prime
	}
	return h
}

// len is the number of live keys.
func (ix *index) len() int { return ix.n }

// find returns key's position in its bucket, or -1.
func (ix *index) find(b int, key identity.Hash) int {
	for i := range ix.buckets[b] {
		if ix.buckets[b][i].key == key {
			return i
		}
	}
	return -1
}

// get returns key's index line.
func (ix *index) get(key identity.Hash) (idxEntry, bool) {
	b := bucketOf(key, fpBuckets)
	if i := ix.find(b, key); i >= 0 {
		return ix.buckets[b][i].idxEntry, true
	}
	return idxEntry{}, false
}

// put installs key's index line, keeps its bucket's fingerprint in step,
// and reports whether the key already had a line.
func (ix *index) put(key identity.Hash, e idxEntry) (replaced bool) {
	b := bucketOf(key, fpBuckets)
	ix.fp[b] ^= keyHash(key, e.sum)
	if i := ix.find(b, key); i >= 0 {
		ix.fp[b] ^= keyHash(key, ix.buckets[b][i].sum)
		ix.buckets[b][i].idxEntry = e
		return true
	}
	ix.buckets[b] = append(ix.buckets[b], located{key, e})
	ix.n++
	return false
}

// delete drops key's index line and folds it out of its bucket.
func (ix *index) delete(key identity.Hash) {
	b := bucketOf(key, fpBuckets)
	if i := ix.find(b, key); i >= 0 {
		lines := ix.buckets[b]
		ix.fp[b] ^= keyHash(key, lines[i].sum)
		lines[i] = lines[len(lines)-1]
		ix.buckets[b] = lines[:len(lines)-1]
		ix.n--
	}
}

// each calls fn for every index line inside scope (nil: all of them),
// visiting only the buckets the scope names. fn must not change the index.
func (ix *index) each(scope Scope, fn func(located)) {
	per := fpBuckets // index buckets per scope bit
	if scope != nil {
		per = fpBuckets / (len(scope) * 8)
	}
	for b := range ix.buckets {
		if scope == nil || scope.has(b/per) {
			for _, line := range ix.buckets[b] {
				fn(line)
			}
		}
	}
}

// folded returns the bucket fingerprints XOR-folded down to width buckets
// (buckets sharing a leading-bit prefix combine), packed big-endian.
func (ix *index) folded(width int) []byte {
	out := make([]byte, 8*width)
	per := fpBuckets / width
	for i := 0; i < width; i++ {
		var f uint64
		for _, v := range ix.fp[i*per : (i+1)*per] {
			f ^= v
		}
		binary.BigEndian.PutUint64(out[8*i:], f)
	}
	return out
}
