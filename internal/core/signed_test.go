package core

import (
	"errors"
	"math/rand"
	"testing"

	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/proof"
)

func signedTestAnnouncement(t *testing.T, seed int64) (Announcement, *identity.KeyPair) {
	t.Helper()
	k, err := identity.NewKeyPairFrom(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ann, err := AnnounceEnumeration("placeholder", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := SignAnnouncement(k, ann)
	if err != nil {
		t.Fatal(err)
	}
	return signed, k
}

func TestSignAnnouncementRoundTrip(t *testing.T) {
	signed, k := signedTestAnnouncement(t, 1)
	if signed.InventorID != string(k.ID()) {
		t.Error("inventor ID not rebound to the signer")
	}
	if err := VerifyAnnouncementSignature(signed); err != nil {
		t.Fatalf("honest signature rejected: %v", err)
	}
}

func TestSignAnnouncementValidation(t *testing.T) {
	if _, err := SignAnnouncement(nil, Announcement{}); err == nil {
		t.Error("nil key pair accepted")
	}
	if err := VerifyAnnouncementSignature(Announcement{}); !errors.Is(err, ErrUnsignedAnnouncement) {
		t.Errorf("err = %v, want ErrUnsignedAnnouncement", err)
	}
}

func TestSignatureDetectsTampering(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(a *Announcement)
	}{
		{"advice swapped", func(a *Announcement) { a.Advice = mustJSON(game.Profile{0, 0}) }},
		{"format swapped", func(a *Announcement) { a.Format = FormatP1 }},
		{"game swapped", func(a *Announcement) { a.Game = mustJSON(SpecFromGame(battleOfSexes())) }},
		{"proof truncated", func(a *Announcement) { a.Proof = a.Proof[:len(a.Proof)-2] }},
		{"identity swapped", func(a *Announcement) { a.InventorID = "someone-else" }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			signed, _ := signedTestAnnouncement(t, 2)
			m.mutate(&signed)
			if err := VerifyAnnouncementSignature(signed); err == nil {
				t.Fatal("tampered announcement accepted")
			}
		})
	}
}
