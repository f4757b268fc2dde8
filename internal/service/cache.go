package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"rationality/internal/core"
	"rationality/internal/identity"
)

// DefaultCacheShards is the shard count used when Config.CacheShards is
// zero. Sixteen shards keep the probability of two concurrent writers
// colliding on one stripe lock low even on wide machines, while each
// shard stays large enough for its recency order to be meaningful.
const DefaultCacheShards = 16

// verdictCache is a bounded, approximately-LRU cache of content-addressed
// verdicts, striped across power-of-two shards. Keys are
// identity.DigestBytes hashes over (format, game, advice, proof), so two
// announcements with byte-identical contents share an entry regardless of
// which inventor or agent submitted them — and since SHA-256 output is
// uniform, the key's leading bytes (identity.Hash.Prefix64) pick a shard
// evenly with a single mask.
//
// The hot path is read-mostly, so each shard splits its synchronization:
//
//   - Get takes NO lock at all. The entry map is a sync.Map (lock-free
//     loads on its read-only fast path) and the recency touch is one
//     atomic store of a ticket from the shard's atomic clock. Entries are
//     immutable bytes, so Get hands out the entry itself: a cache hit
//     performs zero mutex acquisitions and copies nothing.
//   - Put serializes structural changes (insert, replace, evict) on a
//     per-shard mutex, so only concurrent writers to the same stripe
//     contend.
//
// Eviction is least-recently-stamped: when a stripe exceeds its bound the
// writer scans it for the smallest ticket and deletes that entry. The
// scan is O(stripe size), paid only by writers on a full stripe, and the
// read-side stamps race benignly (a hit concurrent with an eviction may
// still be evicted — approximate LRU is the price of lock-free reads).
// Each shard is an independent LRU domain: capacity is split evenly, the
// standard striped-cache trade-off.
type verdictCache struct {
	mask   uint64
	shards []cacheShard
}

// cacheShard is one stripe. The pad keeps neighbouring shards' write
// locks and clocks off one cache line, so striping is not undone by false
// sharing.
type cacheShard struct {
	mu      sync.Mutex // guards structural changes; Get never takes it
	entries sync.Map   // identity.Hash -> *cacheEntry
	size    atomic.Int64
	clock   atomic.Uint64
	cap     int
	// slack batches eviction: a full stripe evicts its `slack` stalest
	// entries in one scan instead of one per insert, amortizing the
	// O(stripe) scan across slack inserts on a miss-heavy workload.
	slack int
	// scratch is the eviction scan's reusable buffer (guarded by mu).
	scratch []agedKey
	_       [16]byte
}

// agedKey pairs a key with its recency stamp for the eviction scan.
type agedKey struct {
	key   identity.Hash
	stamp uint64
}

// cacheEntry is one cached verdict as the wire carries it. Every field but
// stamp is immutable once the entry is published, so readers share the
// entry itself — the bytes go into a reply as they are.
type cacheEntry struct {
	// verdict is the verdict's canonical JSON, core.Verdict.AppendJSON's
	// output: what a verify reply or a stream frame splices in, and what
	// a co-signature's digest covers.
	verdict []byte
	// cert is the encoded quorum certificate over this verdict (empty for
	// uncertified entries). A plain Put that replaces a certified entry
	// with a verdict of the same polarity carries the certificate forward
	// into its replacement — re-verifying an announcement must not make
	// the authority forget the panel's co-signatures over it, but a
	// certificate must not outlive the verdict it signs.
	cert     []byte
	accepted bool
	// stamp is the recency ticket: larger = more recently used.
	stamp atomic.Uint64
}

// newEntry encodes a verdict into an unpublished entry: the one encode a
// verdict gets on its way into the cache.
func newEntry(v *core.Verdict) *cacheEntry {
	var scratch [replyBufferSize]byte
	return &cacheEntry{verdict: bytes.Clone(v.AppendJSON(scratch[:0])), accepted: v.Accepted}
}

// decode returns the entry's verdict as a value of the caller's own: the
// one decode an in-process caller or a co-signature pays. Verify replies
// and stream frames splice the entry's bytes instead.
func (e *cacheEntry) decode() (*core.Verdict, error) {
	var v core.Verdict
	if err := json.Unmarshal(e.verdict, &v); err != nil {
		return nil, fmt.Errorf("service: decoding cached verdict: %w", err)
	}
	return &v, nil
}

// newVerdictCache returns a cache bounded to capacity entries striped over
// the given number of shards (rounded up to a power of two, then capped so
// each shard holds at least one entry). A capacity of zero or less
// disables caching: every Get misses and Put is a no-op.
func newVerdictCache(capacity, shardCount int) *verdictCache {
	if capacity <= 0 {
		return &verdictCache{}
	}
	if shardCount < 1 {
		shardCount = 1
	}
	shardCount = 1 << bits.Len(uint(shardCount-1)) // next power of two
	if shardCount > capacity {
		shardCount = 1 << (bits.Len(uint(capacity)) - 1) // largest power of two <= capacity
	}
	// Floor division keeps the configured capacity an honest upper bound
	// on the total population (the clamp above guarantees >= 1 per shard;
	// up to shardCount-1 configured entries go unused).
	perShard := capacity / shardCount
	c := &verdictCache{
		mask:   uint64(shardCount - 1),
		shards: make([]cacheShard, shardCount),
	}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].slack = max(1, perShard/4)
	}
	return c
}

// shardFor selects the stripe by the key's leading bytes.
func (c *verdictCache) shardFor(key identity.Hash) *cacheShard {
	return &c.shards[key.Prefix64()&c.mask]
}

// Get returns the cached entry, if present. Lock-free: one sync.Map
// load and one recency stamp; the entry is immutable, so nothing is
// copied.
func (c *verdictCache) Get(key identity.Hash) (*cacheEntry, bool) {
	if len(c.shards) == 0 {
		return nil, false
	}
	sh := c.shardFor(key)
	v, ok := sh.entries.Load(key)
	if !ok {
		return nil, false
	}
	e := v.(*cacheEntry)
	e.stamp.Store(sh.clock.Add(1))
	return e, true
}

// Put encodes a verdict and stores it, evicting the shard's
// least-recently-stamped entries when the stripe is full, and returns the
// entry — published unless caching is disabled — so the caller replies
// from the same bytes. The encode happens before the lock; the shard lock
// covers only the map insert and any eviction scan.
func (c *verdictCache) Put(key identity.Hash, v core.Verdict) *cacheEntry {
	e := newEntry(&v)
	c.put(key, e, false)
	return e
}

// PutCertified stores a verdict together with its encoded quorum
// certificate, at cold or normal recency. The certificate bytes are
// copied into the entry, so the caller's slice stays its own.
func (c *verdictCache) PutCertified(key identity.Hash, v core.Verdict, cert []byte, cold bool) {
	e := newEntry(&v)
	if len(cert) > 0 {
		e.cert = bytes.Clone(cert)
	}
	c.put(key, e, cold)
}

// Cert returns a copy of the cached certificate for a key, if the key is
// cached with one. Lock-free, and counts as a recency touch like Get —
// serving a certificate is exactly the hot-path hit the cache exists for.
func (c *verdictCache) Cert(key identity.Hash) ([]byte, bool) {
	if len(c.shards) == 0 {
		return nil, false
	}
	sh := c.shardFor(key)
	v, ok := sh.entries.Load(key)
	if !ok {
		return nil, false
	}
	e := v.(*cacheEntry)
	if len(e.cert) == 0 {
		return nil, false
	}
	e.stamp.Store(sh.clock.Add(1))
	return append([]byte(nil), e.cert...), true
}

// put publishes an unpublished entry under key; the cache owns it from
// here on and never mutates it again.
func (c *verdictCache) put(key identity.Hash, e *cacheEntry, cold bool) {
	if len(c.shards) == 0 {
		return
	}
	sh := c.shardFor(key)
	if !cold {
		// A cold entry keeps stamp 0 — below every ticket the shard's
		// clock has ever issued — so the eviction scan ranks it stalest.
		e.stamp.Store(sh.clock.Add(1))
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.cert == nil {
		// A plain Put over a certified entry keeps the certificate while
		// the verdict it signs stands: same key, same polarity, so the
		// co-signatures still apply. A flipped verdict (an audit repair)
		// drops it — serving a refuted verdict's certificate beside the
		// correction would vouch for the lie. The entry is unpublished
		// here, so the write races nothing; the shard lock orders it
		// against other installs for the key.
		if old, ok := sh.entries.Load(key); ok && old.(*cacheEntry).accepted == e.accepted {
			e.cert = old.(*cacheEntry).cert
		}
	}
	if _, existed := sh.entries.Swap(key, e); existed {
		return // refreshed in place; size unchanged
	}
	if sh.size.Add(1) <= int64(sh.cap) {
		return
	}
	// Over bound: one scan collects every entry's stamp, then the `slack`
	// stalest entries go at once, buying slack-1 future inserts that need
	// no scan at all. Writers only; readers never see the lock.
	scan := sh.scratch[:0]
	sh.entries.Range(func(k, v any) bool {
		scan = append(scan, agedKey{k.(identity.Hash), v.(*cacheEntry).stamp.Load()})
		return true
	})
	sh.scratch = scan[:0]
	evict := len(scan) - (sh.cap - sh.slack + 1)
	if evict < 1 {
		evict = 1
	}
	if evict > len(scan) {
		evict = len(scan)
	}
	slices.SortFunc(scan, func(a, b agedKey) int {
		return cmp.Compare(a.stamp, b.stamp)
	})
	for _, e := range scan[:evict] {
		sh.entries.Delete(e.key)
	}
	sh.size.Add(int64(-evict))
}

// Contains reports whether a key is currently cached, without touching
// its recency. Lock-free (one sync.Map load); safe from any goroutine —
// the verdict store's compaction uses it as the warmth oracle for its
// retention bound.
func (c *verdictCache) Contains(key identity.Hash) bool {
	if len(c.shards) == 0 {
		return false
	}
	_, ok := c.shardFor(key).entries.Load(key)
	return ok
}

// Len returns the current number of cached verdicts across all shards.
func (c *verdictCache) Len() int {
	n := int64(0)
	for i := range c.shards {
		n += c.shards[i].size.Load()
	}
	return int(n)
}

// ShardLens returns the per-shard entry counts (nil when caching is
// disabled): the operator-visible view of how evenly the stripes fill.
func (c *verdictCache) ShardLens() []int {
	if len(c.shards) == 0 {
		return nil
	}
	lens := make([]int, len(c.shards))
	for i := range c.shards {
		lens[i] = int(c.shards[i].size.Load())
	}
	return lens
}
