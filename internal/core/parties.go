package core

import (
	"context"
	"encoding/json"
	"fmt"

	"rationality/internal/transport"
)

// Protocol message types.
const (
	// MsgAnnounce: agent → inventor. Empty payload; the reply is an
	// Announcement.
	MsgAnnounce = "announce"
	// MsgVerify: agent → verifier. Payload VerifyRequest; reply
	// VerifyResponse.
	MsgVerify = "verify"
	// MsgFormats: agent → verifier. Empty payload; reply FormatsResponse.
	MsgFormats = "formats"
)

// Announcement is the inventor's message of Fig. 1: the game G, the
// suggested actions (advice), and a checkable proof of their feasibility and
// optimality in an agreed-upon format.
type Announcement struct {
	InventorID string          `json:"inventorId"`
	Format     string          `json:"format"`
	Game       json.RawMessage `json:"game"`
	Advice     json.RawMessage `json:"advice"`
	Proof      json.RawMessage `json:"proof,omitempty"`
	// Signature, when present, is the inventor's Ed25519 signature over the
	// other fields (see SignAnnouncement); InventorID is then the signer's
	// self-certifying identity.
	Signature []byte `json:"signature,omitempty"`
}

// VerifyRequest asks a verifier to check an announcement.
type VerifyRequest struct {
	Format string          `json:"format"`
	Game   json.RawMessage `json:"game"`
	Advice json.RawMessage `json:"advice"`
	Proof  json.RawMessage `json:"proof,omitempty"`
}

// VerifyResponse is the verifier's signed-by-reputation answer.
type VerifyResponse struct {
	VerifierID string  `json:"verifierId"`
	Verdict    Verdict `json:"verdict"`
}

// FormatsResponse lists the proof formats a verifier can check.
type FormatsResponse struct {
	VerifierID string   `json:"verifierId"`
	Formats    []string `json:"formats"`
}

// InventorService serves announcements over a transport. The announcement is
// fixed at construction: one service per announced game, as in the paper's
// single-game interaction.
type InventorService struct {
	announcement Announcement
}

var _ transport.Handler = (*InventorService)(nil)

// NewInventorService wraps a prepared announcement.
func NewInventorService(a Announcement) (*InventorService, error) {
	if a.InventorID == "" {
		return nil, fmt.Errorf("core: announcement needs an inventor ID")
	}
	if a.Format == "" || len(a.Game) == 0 || len(a.Advice) == 0 {
		return nil, fmt.Errorf("core: announcement needs format, game, and advice")
	}
	return &InventorService{announcement: a}, nil
}

// Handle implements transport.Handler.
func (s *InventorService) Handle(_ context.Context, req transport.Message) (transport.Message, error) {
	switch req.Type {
	case MsgAnnounce:
		return transport.NewMessage("announcement", s.announcement)
	default:
		return transport.Message{}, fmt.Errorf("core: inventor cannot handle %q", req.Type)
	}
}

// FetchAnnouncement is the agent's half of MsgAnnounce: it asks the
// (untrusted) inventor for its announcement. Nothing is checked here; the
// signature and the proof are the verifier panel's job (quorum.Client).
func FetchAnnouncement(ctx context.Context, inventor transport.Client) (Announcement, error) {
	var ann Announcement
	req, err := transport.NewMessage(MsgAnnounce, struct{}{})
	if err != nil {
		return ann, err
	}
	resp, err := inventor.Call(ctx, req)
	if err != nil {
		return ann, fmt.Errorf("core: consulting the inventor: %w", err)
	}
	err = resp.Decode(&ann)
	return ann, err
}
