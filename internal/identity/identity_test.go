package identity

import (
	"errors"
	"math/rand"
	"testing"
)

func testKey(t *testing.T, seed int64) *KeyPair {
	t.Helper()
	k, err := NewKeyPairFrom(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSignVerifyRoundTrip(t *testing.T) {
	k := testKey(t, 1)
	msg := []byte("the advised equilibrium is p = 1/4")
	sig := k.Sign(msg)
	if err := Verify(k.ID(), msg, sig); err != nil {
		t.Fatalf("honest signature rejected: %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	k := testKey(t, 2)
	msg := []byte("p = 1/4")
	sig := k.Sign(msg)
	if err := Verify(k.ID(), []byte("p = 1/3"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered message accepted: %v", err)
	}
	sig[0] ^= 1
	if err := Verify(k.ID(), msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered signature accepted: %v", err)
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	k1 := testKey(t, 3)
	k2 := testKey(t, 4)
	msg := []byte("hello")
	if err := Verify(k2.ID(), msg, k1.Sign(msg)); !errors.Is(err, ErrBadSignature) {
		t.Fatal("cross-party signature accepted")
	}
	if err := Verify(PartyID("not-hex!"), msg, k1.Sign(msg)); !errors.Is(err, ErrBadSignature) {
		t.Fatal("malformed party ID accepted")
	}
	if err := Verify(PartyID("abcd"), msg, k1.Sign(msg)); !errors.Is(err, ErrBadSignature) {
		t.Fatal("short party ID accepted")
	}
}

func TestIDsAreDistinct(t *testing.T) {
	if testKey(t, 5).ID() == testKey(t, 6).ID() {
		t.Fatal("distinct keys share an ID")
	}
	if testKey(t, 7).ID() != testKey(t, 7).ID() {
		t.Fatal("same seed should give the same ID")
	}
}

func TestDigestStableAndBoundaryAware(t *testing.T) {
	digest := func(parts ...[]byte) string { return DigestBytes(parts...).String() }
	d1 := digest([]byte("format"), []byte("game"), []byte("advice"))
	d2 := digest([]byte("format"), []byte("game"), []byte("advice"))
	if d1 != d2 {
		t.Fatal("Digest is not deterministic")
	}
	if len(d1) != 64 {
		t.Fatalf("Digest length = %d, want 64 hex chars", len(d1))
	}
	// Length prefixes must keep part boundaries significant.
	if digest([]byte("ab"), []byte("c")) == digest([]byte("a"), []byte("bc")) {
		t.Fatal("Digest collides across shifted part boundaries")
	}
	if digest([]byte("x")) == digest([]byte("x"), nil) {
		t.Fatal("Digest ignores trailing empty parts")
	}
}

func TestHashPrefix64(t *testing.T) {
	h := DigestBytes([]byte("shard-me"))
	var want uint64
	for _, b := range h[:8] {
		want = want<<8 | uint64(b)
	}
	if got := h.Prefix64(); got != want {
		t.Fatalf("Prefix64 = %#x, want the big-endian leading 8 bytes %#x", got, want)
	}
	// The selector must actually spread: over many distinct digests, every
	// residue class of a small power-of-two modulus should be populated.
	const shards = 8
	var seen [shards]int
	for i := 0; i < 512; i++ {
		seen[DigestBytes([]byte{byte(i), byte(i >> 8)}).Prefix64()&(shards-1)]++
	}
	for i, n := range seen {
		if n == 0 {
			t.Fatalf("shard %d never selected across 512 uniform digests", i)
		}
	}
}
