// Package quorum is the multi-verifier panel the paper trusts in place of
// any single authority: "the possibility of having several verifiers,
// such that their majority is trusted. The reputation of the verifiers
// can be updated according to the (majority of their) results" (§7). A
// quorum client fans one verification request out to every member
// concurrently, bounds each consultation with its own timeout (a slow or
// dead verifier abstains instead of stalling the panel), and aggregates
// the collected verdicts through the reputation registry's weighted vote:
// each verifier's vote counts in proportion to its earned reputation, and
// every vote moves that reputation — agreement with the quorum builds
// trust, dissent decays it, so a lying verifier is progressively priced
// out of the panel it is lying to.
//
// The result is a quorum-certified verdict plus a dissent report: which
// members disagreed, what they claimed, and where their reputation now
// stands — the audit trail an agent (or an operator deciding whom to stop
// paying) acts on.
//
// The package holds the two panel clients: Client, the live panel an
// agent consults on an inventor's announcement (Fig. 1 with the single
// trusted verifier replaced by the panel), and Certifier, which collects
// the panel's co-signatures into a self-proving core.Certificate.
package quorum

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"rationality/internal/core"
	"rationality/internal/reputation"
	"rationality/internal/transport"
)

// DefaultCallTimeout bounds one member's consultation when Config leaves
// CallTimeout zero.
const DefaultCallTimeout = 10 * time.Second

// Member is one verifier on the panel: its reputation identity and the
// client it answers on.
type Member struct {
	// ID keys the verifier in the reputation registry.
	ID string
	// Client reaches the verifier (TCP pool, in-process, …).
	Client transport.Client
}

// Config configures a quorum client.
type Config struct {
	// Members is the panel; at least one is required, an odd count is
	// wise, and IDs must be unique (they key the reputation registry).
	Members []Member
	// Registry records every vote and supplies the weights; required.
	Registry *reputation.Registry
	// CallTimeout bounds each member's consultation; zero means
	// DefaultCallTimeout, negative disables the per-member bound (the
	// caller's context still applies).
	CallTimeout time.Duration
	// Threshold excludes members whose reputation has fallen below it
	// from consultation (0 consults everyone): the paper's exclusion of
	// parties "reported to a reputation system that audits their
	// actions".
	Threshold float64
}

// Client fans verification requests out to a quorum of verifiers and
// majority-votes the answers. Safe for concurrent use.
type Client struct {
	members   []Member
	registry  *reputation.Registry
	timeout   time.Duration
	threshold float64
}

// New validates the panel and builds a quorum client. The member clients
// are borrowed, not owned: closing them remains the caller's job.
func New(cfg Config) (*Client, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("quorum: need at least one member")
	}
	if cfg.Registry == nil {
		return nil, errors.New("quorum: need a reputation registry")
	}
	seen := make(map[string]bool, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.ID == "" || m.Client == nil {
			return nil, fmt.Errorf("quorum: member %q needs an ID and a client", m.ID)
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("quorum: duplicate member %q", m.ID)
		}
		seen[m.ID] = true
	}
	timeout := cfg.CallTimeout
	if timeout == 0 {
		timeout = DefaultCallTimeout
	}
	members := append([]Member(nil), cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	return &Client{
		members:   members,
		registry:  cfg.Registry,
		timeout:   timeout,
		threshold: cfg.Threshold,
	}, nil
}

// Vote is one member's contribution to a quorum decision.
type Vote struct {
	// VerifierID is the member that answered.
	VerifierID string
	// Verdict is the member's full answer.
	Verdict core.Verdict
	// Reputation is the member's score after this vote was recorded.
	Reputation float64
	// Dissented marks a vote that contradicted the quorum outcome.
	Dissented bool
}

// Result is a quorum-certified verdict with its dissent report.
type Result struct {
	// Accepted is the weighted-majority outcome.
	Accepted bool
	// Verdict is the representative verdict: the answer of the
	// highest-reputation member that voted with the majority (ties broken
	// by ID), so the caller gets the evidence Details of a trusted voter,
	// not a dissenter's.
	Verdict core.Verdict
	// Votes holds every answering member's vote, sorted by VerifierID.
	Votes []Vote
	// Dissents counts votes against the outcome.
	Dissents int
	// Abstained lists members that failed to answer (unreachable, timed
	// out, erred) and therefore neither voted nor moved their reputation,
	// sorted by ID.
	Abstained []string
}

// ErrAllAbstained is returned when no member produced a verdict.
var ErrAllAbstained = errors.New("quorum: every verifier failed to answer")

// Verify fans the request out to every consultable member concurrently,
// collects the verdicts, and weighted-majority-votes them through the
// reputation registry — recording every voter's agreement or dissent, so
// reputations move on each decision. Member failures are abstentions; a
// vote the registry cannot break (reputation.ErrTie) is returned as an
// error wrapping ErrTie with the votes unrecorded.
func (q *Client) Verify(ctx context.Context, req core.VerifyRequest) (*Result, error) {
	msg, err := transport.NewMessage(core.MsgVerify, req)
	if err != nil {
		return nil, err
	}
	consulted := q.consultable()
	if len(consulted) == 0 {
		return nil, fmt.Errorf("quorum: no member meets the reputation threshold %.2f", q.threshold)
	}

	type answer struct {
		id   string
		resp *core.VerifyResponse
		err  error
	}
	answers := make(chan answer, len(consulted))
	for _, m := range consulted {
		go func(m Member) {
			resp, err := call[core.VerifyResponse](ctx, q.timeout, m, msg)
			answers <- answer{id: m.ID, resp: resp, err: err}
		}(m)
	}

	verdicts := make(map[string]core.Verdict, len(consulted))
	votes := make(map[string]bool, len(consulted))
	var abstained []string
	for range consulted {
		a := <-answers
		if a.err != nil {
			abstained = append(abstained, a.id)
			// A member that ran out the per-member timeout while the
			// panel's own deadline still stood was unresponsive, and that
			// is worth recording: reputation.ReportUnresponsive is a
			// bounded, half-weight charge (slowness is evidence of flak-
			// iness, not of lying), so a member that repeatedly times out
			// decays toward the consultation threshold instead of keeping
			// a pristine score by never answering. When the caller's own
			// context expired, every member "timed out" — that proves
			// nothing about any of them, so nothing is recorded.
			if ctx.Err() == nil && errors.Is(a.err, context.DeadlineExceeded) {
				q.registry.ReportUnresponsive(a.id,
					fmt.Sprintf("quorum: consultation timed out after %s", q.timeout))
			}
			continue
		}
		verdicts[a.id] = a.resp.Verdict
		votes[a.id] = a.resp.Verdict.Accepted
	}
	sort.Strings(abstained)
	if len(votes) == 0 {
		return nil, ErrAllAbstained
	}

	accepted, err := q.registry.WeightedVote(votes)
	if err != nil {
		return nil, fmt.Errorf("quorum: no usable majority among %d votes: %w", len(votes), err)
	}
	return q.assemble(accepted, verdicts, abstained), nil
}

// VerifyAnnouncement is Verify for an inventor's announcement: the quorum
// checks the proof, and a rejection is additionally reported against the
// inventor — the full Fig. 1 accountability loop with the single trusted
// verifier replaced by the panel. A signed announcement's signature is
// checked first, and one that does not verify is refused before any member
// is consulted: only a signature-verified identity may be charged, so
// nobody can frame a party by naming its key on a forgery. An unsigned
// announcement's InventorID is taken as given.
func (q *Client) VerifyAnnouncement(ctx context.Context, ann core.Announcement) (*Result, error) {
	if len(ann.Signature) > 0 {
		if err := core.VerifyAnnouncementSignature(ann); err != nil {
			return nil, fmt.Errorf("quorum: refusing the announcement: %w", err)
		}
	}
	res, err := q.Verify(ctx, core.VerifyRequest{
		Format: ann.Format,
		Game:   ann.Game,
		Advice: ann.Advice,
		Proof:  ann.Proof,
	})
	if err != nil {
		return nil, err
	}
	if !res.Accepted && ann.InventorID != "" {
		q.registry.ReportMisbehaviour(ann.InventorID,
			fmt.Sprintf("quorum of %d verifiers rejected the %s proof (%d dissents)",
				len(res.Votes), ann.Format, res.Dissents))
	}
	return res, nil
}

// consultable filters the panel by the reputation threshold.
func (q *Client) consultable() []Member {
	if q.threshold <= 0 {
		return q.members
	}
	out := make([]Member, 0, len(q.members))
	for _, m := range q.members {
		if q.registry.Trusted(m.ID, q.threshold) {
			out = append(out, m)
		}
	}
	return out
}

// call runs one member's consultation under the per-member timeout (none
// when timeout is negative; the caller's context still applies) and
// decodes the member's reply into a T.
func call[T any](ctx context.Context, timeout time.Duration, m Member, msg transport.Message) (*T, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	resp, err := m.Client.Call(ctx, msg)
	if err != nil {
		return nil, err
	}
	var out T
	if err := resp.Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// assemble builds the Result once the registry has recorded the vote:
// per-member votes with post-vote reputations, the dissent count, and the
// representative verdict from the weightiest agreeing member.
func (q *Client) assemble(accepted bool, verdicts map[string]core.Verdict, abstained []string) *Result {
	res := &Result{Accepted: accepted, Abstained: abstained}
	ids := make([]string, 0, len(verdicts))
	for id := range verdicts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	bestRep := -1.0
	for _, id := range ids {
		v := verdicts[id]
		vote := Vote{
			VerifierID: id,
			Verdict:    v,
			Reputation: q.registry.Reputation(id),
			Dissented:  v.Accepted != accepted,
		}
		if vote.Dissented {
			res.Dissents++
		} else if vote.Reputation > bestRep {
			// ids are sorted, so the first of equal-reputation agreeing
			// members wins deterministically.
			bestRep = vote.Reputation
			res.Verdict = v
		}
		res.Votes = append(res.Votes, vote)
	}
	return res
}
