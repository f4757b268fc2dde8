// Package identity provides the accountability layer the paper's footnote 3
// sketches: "the system can require the inventor to publish the average
// loads with its signature at each round. ... then the inventor is kept
// responsible when found cheating". Parties hold Ed25519 key pairs; their
// announcements and verdicts are signed, so a misbehaviour report to the
// reputation system carries non-repudiable evidence.
package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
)

// PartyID is the hex encoding of an Ed25519 public key: identities are
// self-certifying, so the reputation registry can be keyed by them without
// a certificate authority.
type PartyID string

// KeyPair is a party's signing identity.
type KeyPair struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewKeyPair generates an identity from crypto/rand.
func NewKeyPair() (*KeyPair, error) {
	return NewKeyPairFrom(rand.Reader)
}

// NewKeyPairFrom generates an identity from the given entropy source
// (deterministic in tests).
func NewKeyPairFrom(rng io.Reader) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("identity: generating key: %w", err)
	}
	return &KeyPair{pub: pub, priv: priv}, nil
}

// ID returns the party's self-certifying identifier.
func (k *KeyPair) ID() PartyID {
	return PartyID(hex.EncodeToString(k.pub))
}

// Sign signs a message.
func (k *KeyPair) Sign(message []byte) []byte {
	return ed25519.Sign(k.priv, message)
}

// ErrBadSignature is returned when a signature does not verify.
var ErrBadSignature = errors.New("identity: signature verification failed")

// Verify checks a signature against a party ID.
func Verify(id PartyID, message, sig []byte) error {
	pub, err := hex.DecodeString(string(id))
	if err != nil || len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("identity: malformed party ID: %w", ErrBadSignature)
	}
	if !ed25519.Verify(ed25519.PublicKey(pub), message, sig) {
		return ErrBadSignature
	}
	return nil
}

// Digest returns the hex SHA-256 content address of the given parts. Each
// part is length-prefixed before hashing, so ("ab","c") and ("a","bc") hash
// differently; the result is stable across processes and suitable as a cache
// key or as the subject of a signed evidence record.
func Digest(parts ...[]byte) string {
	return DigestBytes(parts...).String()
}

// Hash is a raw 32-byte SHA-256 content address. It is comparable, so it
// serves directly as a map key; hot paths (the verification service's
// verdict cache) prefer it over the hex string because it needs no
// encoding allocation and exposes its leading bytes as a shard selector.
type Hash [sha256.Size]byte

// digestBufPool recycles the framing buffers DigestBytes assembles its
// input into. DigestBytes sits on the verification service's cache-hit
// path, so it avoids the hash.Hash interface entirely: writes through the
// interface force every part to escape to the heap, whereas assembling
// into a pooled buffer and calling the concrete sha256.Sum256 keeps the
// steady state allocation-free at the cost of one extra memcopy of the
// input.
var digestBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// DigestBytes returns the SHA-256 content address of the given parts with
// the same length-prefixed framing as Digest: DigestBytes(p...).String()
// == Digest(p...) for all inputs. Allocation-free on the steady state.
func DigestBytes(parts ...[]byte) Hash {
	need := 0
	for _, p := range parts {
		need += 8 + len(p)
	}
	bp := digestBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if cap(buf) < need {
		// One exact-size allocation instead of append-doubling churn for
		// inputs that outgrow the pooled buffer.
		buf = make([]byte, 0, need)
	}
	var prefix [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(prefix[:], uint64(len(p)))
		buf = append(buf, prefix[:]...)
		buf = append(buf, p...)
	}
	out := Hash(sha256.Sum256(buf))
	// Recycle ordinary buffers; let one sized for a huge announcement be
	// collected instead of pinning its worst-case size in the pool.
	if cap(buf) <= maxPooledDigestBuf {
		*bp = buf
	}
	digestBufPool.Put(bp) // oversized: the pool keeps its original buffer
	return out
}

// maxPooledDigestBuf bounds the framing buffers digestBufPool retains.
const maxPooledDigestBuf = 64 << 10

// String returns the canonical hex encoding, identical to Digest's output.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Prefix64 returns the hash's first 8 bytes as a big-endian integer.
// SHA-256 output is uniform, so any subset of these bits indexes a
// power-of-two shard array evenly.
func (h Hash) Prefix64() uint64 { return binary.BigEndian.Uint64(h[:8]) }

// ParseHash decodes the canonical hex encoding produced by Hash.String
// back into a Hash, rejecting strings of the wrong length or alphabet.
func ParseHash(s string) (Hash, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Hash{}, fmt.Errorf("identity: hash %q is not hex: %w", s, err)
	}
	if len(raw) != len(Hash{}) {
		return Hash{}, fmt.Errorf("identity: hash %q decodes to %d bytes, want %d", s, len(raw), len(Hash{}))
	}
	return Hash(raw), nil
}
