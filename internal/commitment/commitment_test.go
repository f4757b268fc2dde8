package commitment

import (
	cryptorand "crypto/rand"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCommitVerifyRoundTrip(t *testing.T) {
	c, open, err := CommitWithRand([]byte("the column support is {2, 5}"), cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(c, open); err != nil {
		t.Fatalf("honest opening rejected: %v", err)
	}
}

func TestVerifyRejectsTamperedValue(t *testing.T) {
	c, open, err := CommitWithRand([]byte("yes"), cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	open.Value = []byte("no!")
	if err := Verify(c, open); !errors.Is(err, ErrBadOpening) {
		t.Fatalf("err = %v, want ErrBadOpening", err)
	}
}

func TestVerifyRejectsTamperedSalt(t *testing.T) {
	c, open, err := CommitWithRand([]byte("yes"), cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	open.Salt[0] ^= 0xff
	if err := Verify(c, open); !errors.Is(err, ErrBadOpening) {
		t.Fatalf("err = %v, want ErrBadOpening", err)
	}
}

func TestVerifyRejectsNilAndShortSalt(t *testing.T) {
	c, open, err := CommitWithRand([]byte("x"), cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(c, nil); !errors.Is(err, ErrBadOpening) {
		t.Error("nil opening accepted")
	}
	open.Salt = open.Salt[:4]
	if err := Verify(c, open); !errors.Is(err, ErrBadOpening) {
		t.Error("short salt accepted")
	}
}

func TestCommitmentsAreHiding(t *testing.T) {
	// Same value, fresh salts → different commitments.
	c1, _, err := CommitWithRand([]byte("bit"), cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := CommitWithRand([]byte("bit"), cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("identical commitments for independent commits: salt ignored?")
	}
}

func TestCommitDoesNotAliasValue(t *testing.T) {
	v := []byte("secret")
	c, open, err := CommitWithRand(v, cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 'X'
	if err := Verify(c, open); err != nil {
		t.Fatal("mutating the caller's buffer broke the opening: value aliased")
	}
}

func TestCommitWithRandDeterministic(t *testing.T) {
	c1, _, err := CommitWithRand([]byte("v"), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := CommitWithRand([]byte("v"), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("same seed should give same commitment")
	}
}

func TestCommitBitsAndOpenBit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bits := BitVector{true, false, false, true, true}
	comms, opens, err := CommitBits(bits, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != len(bits) || len(opens) != len(bits) {
		t.Fatalf("lengths %d/%d", len(comms), len(opens))
	}
	for i := range bits {
		got, err := OpenBit(comms[i], opens[i])
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != bool(bits[i]) {
			t.Fatalf("bit %d = %v, want %v", i, got, bits[i])
		}
	}
	// Cross-opening must fail (bindingness across indices).
	if _, err := OpenBit(comms[0], opens[1]); !errors.Is(err, ErrBadOpening) {
		t.Error("opening for one index accepted for another")
	}
}

func TestOpenBitRejectsNonBit(t *testing.T) {
	c, open, err := CommitWithRand([]byte{7}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBit(c, open); !errors.Is(err, ErrBadOpening) {
		t.Error("non-bit value accepted by OpenBit")
	}
}

// Property: Verify accepts exactly the opening produced by Commit, for
// arbitrary values.
func TestCommitVerifyProperty(t *testing.T) {
	f := func(value []byte, seed int64) bool {
		c, open, err := CommitWithRand(value, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return Verify(c, open) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any byte of the committed value is detected.
func TestTamperDetectionProperty(t *testing.T) {
	f := func(value []byte, pos uint8, seed int64) bool {
		if len(value) == 0 {
			return true
		}
		c, open, err := CommitWithRand(value, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		i := int(pos) % len(open.Value)
		open.Value[i] ^= 0x01
		return errors.Is(Verify(c, open), ErrBadOpening)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
