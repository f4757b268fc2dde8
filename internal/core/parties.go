package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"rationality/internal/reputation"
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

// Agent is the counselee: it consults the (untrusted) inventor, has the
// advice checked by its trusted verifiers, applies majority voting, updates
// reputations, and only then adopts the advice.
type Agent struct {
	name      string
	inventor  transport.Client
	verifiers map[string]transport.Client
	registry  *reputation.Registry
	// threshold is the minimum reputation for a verifier to be consulted.
	threshold float64
	// requireSigned rejects unsigned announcements.
	requireSigned bool
}

// AgentConfig configures an agent.
type AgentConfig struct {
	Name     string
	Inventor transport.Client
	// Verifiers maps verifier IDs to their clients.
	Verifiers map[string]transport.Client
	Registry  *reputation.Registry
	// Threshold is the minimum reputation to include a verifier; default 0
	// (consult all).
	Threshold float64
	// RequireSignedAnnouncements makes the agent reject announcements that
	// carry no inventor signature (footnote 3 accountability). Signed
	// announcements are always signature-checked regardless.
	RequireSignedAnnouncements bool
}

// NewAgent validates and builds an agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: agent needs a name")
	}
	if cfg.Inventor == nil {
		return nil, fmt.Errorf("core: agent needs an inventor client")
	}
	if len(cfg.Verifiers) == 0 {
		return nil, fmt.Errorf("core: agent needs at least one verifier")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("core: agent needs a reputation registry")
	}
	verifiers := make(map[string]transport.Client, len(cfg.Verifiers))
	for id, c := range cfg.Verifiers {
		verifiers[id] = c
	}
	return &Agent{
		name:          cfg.Name,
		inventor:      cfg.Inventor,
		verifiers:     verifiers,
		registry:      cfg.Registry,
		threshold:     cfg.Threshold,
		requireSigned: cfg.RequireSignedAnnouncements,
	}, nil
}

// ConsultResult is the outcome of one consultation round.
type ConsultResult struct {
	Announcement Announcement
	// Verdicts holds each consulted verifier's answer.
	Verdicts map[string]Verdict
	// Accepted is the weighted-majority outcome: the advice is safe to
	// adopt.
	Accepted bool
}

// Consult performs the full Fig. 1 interaction: fetch the announcement,
// fan it out to every trusted verifier, weighted-majority-vote the
// verdicts (each vote counts in proportion to the verifier's current
// reputation and moves it — the same reputation.WeightedVote the quorum
// client uses, with the same deterministic tie-breaking: a weight tie
// falls back to raw counts, and only a double tie errors), and report the
// inventor to the reputation system when the vote rejects its proof. A
// verifier that has lied before therefore cannot out-vote a trusted one
// merely by showing up with accomplices: earned trust, not head count,
// decides what the agent acts on.
func (a *Agent) Consult(ctx context.Context) (*ConsultResult, error) {
	req, err := transport.NewMessage(MsgAnnounce, struct{}{})
	if err != nil {
		return nil, err
	}
	resp, err := a.inventor.Call(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("core: consulting the inventor: %w", err)
	}
	var ann Announcement
	if err := resp.Decode(&ann); err != nil {
		return nil, err
	}

	// Accountability: a present signature must verify; absence is rejected
	// only when the agent demands signed announcements.
	if len(ann.Signature) > 0 {
		if err := VerifyAnnouncementSignature(ann); err != nil {
			return nil, err
		}
	} else if a.requireSigned {
		return nil, ErrUnsignedAnnouncement
	}

	consulted := a.trustedVerifiers()
	if len(consulted) == 0 {
		return nil, fmt.Errorf("core: no verifier meets the reputation threshold %.2f", a.threshold)
	}

	verdicts := make(map[string]Verdict, len(consulted))
	votes := make(map[string]bool, len(consulted))
	for _, id := range consulted {
		verdict, err := a.askVerifier(ctx, a.verifiers[id], ann)
		if err != nil {
			// An unreachable or erroring verifier abstains; it neither votes
			// nor gains reputation.
			continue
		}
		verdicts[id] = *verdict
		votes[id] = verdict.Accepted
	}
	if len(votes) == 0 {
		return nil, fmt.Errorf("core: every verifier failed to answer")
	}

	accepted, err := a.registry.WeightedVote(votes)
	if err != nil {
		return nil, fmt.Errorf("core: no usable majority: %w", err)
	}
	if !accepted {
		a.registry.ReportMisbehaviour(ann.InventorID,
			fmt.Sprintf("agent %s: weighted majority of %d verifiers rejected the %s proof",
				a.name, len(votes), ann.Format))
	}
	return &ConsultResult{Announcement: ann, Verdicts: verdicts, Accepted: accepted}, nil
}

func (a *Agent) trustedVerifiers() []string {
	var ids []string
	for id := range a.verifiers {
		if a.registry.Trusted(id, a.threshold) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

func (a *Agent) askVerifier(ctx context.Context, c transport.Client, ann Announcement) (*Verdict, error) {
	req, err := transport.NewMessage(MsgVerify, VerifyRequest{
		Format: ann.Format,
		Game:   ann.Game,
		Advice: ann.Advice,
		Proof:  ann.Proof,
	})
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(ctx, req)
	if err != nil {
		return nil, err
	}
	var vr VerifyResponse
	if err := resp.Decode(&vr); err != nil {
		return nil, err
	}
	return &vr.Verdict, nil
}
