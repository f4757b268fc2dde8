// Package commitment implements a salted SHA-256 commitment scheme.
//
// In the paper's P2 protocol (§4, Fig. 4) the prover answers membership
// queries ("is index j in the other agent's support?") one at a time. A
// dishonest prover could adapt its answers to the verifier's queries unless
// the answers are bound up front. Committing to the full membership vector
// before the first query — and opening only the queried bits — keeps the
// protocol private (unqueried bits stay hidden) while making the answers
// binding, which is the "resembles zero-knowledge proofs" flavour the paper
// describes.
//
// The scheme is computationally binding and hiding under standard
// assumptions on SHA-256: commit = SHA-256(salt ‖ value) with a 32-byte
// random salt.
package commitment

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
)

// SaltSize is the length in bytes of commitment salts.
const SaltSize = 32

// Commitment is the binding digest published by the committer.
type Commitment [sha256.Size]byte

// String renders the commitment in hex.
func (c Commitment) String() string { return fmt.Sprintf("%x", c[:]) }

// Opening reveals a committed value together with the salt that binds it.
type Opening struct {
	Value []byte `json:"value"`
	Salt  []byte `json:"salt"`
}

// ErrBadOpening is returned by Verify when an opening does not match its
// commitment.
var ErrBadOpening = errors.New("commitment: opening does not match commitment")

// CommitWithRand commits to value drawing the salt from the given source.
// Tests use a deterministic source; production callers should use
// crypto/rand.Reader.
func CommitWithRand(value []byte, rng io.Reader) (Commitment, *Opening, error) {
	salt := make([]byte, SaltSize)
	if _, err := io.ReadFull(rng, salt); err != nil {
		return Commitment{}, nil, fmt.Errorf("commitment: drawing salt: %w", err)
	}
	open := &Opening{Value: bytes.Clone(value), Salt: salt}
	return digest(open), open, nil
}

// Verify checks that the opening matches the commitment. The comparison is
// constant time in the digest.
func Verify(c Commitment, open *Opening) error {
	if open == nil {
		return ErrBadOpening
	}
	if len(open.Salt) != SaltSize {
		return fmt.Errorf("%w: salt is %d bytes, want %d", ErrBadOpening, len(open.Salt), SaltSize)
	}
	d := digest(open)
	if subtle.ConstantTimeCompare(d[:], c[:]) != 1 {
		return ErrBadOpening
	}
	return nil
}

func digest(open *Opening) Commitment {
	h := sha256.New()
	h.Write(open.Salt)
	h.Write(open.Value)
	var c Commitment
	copy(c[:], h.Sum(nil))
	return c
}

// BitVector packs boolean membership answers for per-index commitments: the
// P2 prover commits to each support-membership bit separately so it can open
// exactly the queried indices and nothing else.
type BitVector []bool

// CommitBits commits to each bit of b independently, returning parallel
// slices of commitments and openings.
func CommitBits(b BitVector, rng io.Reader) ([]Commitment, []*Opening, error) {
	comms := make([]Commitment, len(b))
	opens := make([]*Opening, len(b))
	for i, bit := range b {
		v := []byte{0}
		if bit {
			v[0] = 1
		}
		c, o, err := CommitWithRand(v, rng)
		if err != nil {
			return nil, nil, err
		}
		comms[i], opens[i] = c, o
	}
	return comms, opens, nil
}

// OpenBit interprets an opening produced by CommitBits as a boolean after
// verifying it against the commitment.
func OpenBit(c Commitment, open *Opening) (bool, error) {
	if err := Verify(c, open); err != nil {
		return false, err
	}
	if len(open.Value) != 1 || open.Value[0] > 1 {
		return false, fmt.Errorf("%w: not a bit opening", ErrBadOpening)
	}
	return open.Value[0] == 1, nil
}
