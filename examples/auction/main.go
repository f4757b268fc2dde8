// Command auction reproduces the paper's §5 scenario end to end: n firms
// consider entering an auction with participation fee c and prize v. The
// inventor (the auctioneer) solves the symmetric equilibrium probability p —
// the hard root-finding step — and serves it with a checkable claim; each
// firm verifies Eq. (5) exactly before playing. The online variant then lets
// firms decide in sequence with the inventor advising the last mover, and
// contrasts honest with flipped (false) advice.
package main

import (
	"context"
	"fmt"
	"os"

	"rationality/internal/core"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "auction:", err)
		os.Exit(1)
	}
}

func run() error {
	// The paper's numbers: n = 3 firms, k = 2 quorum, c/v = 3/8 (v=8, c=3).
	g, err := participation.New(3, 2, numeric.I(8), numeric.I(3))
	if err != nil {
		return err
	}
	fmt.Printf("participation game: n=%d k=%d v=%s c=%s\n",
		g.N(), g.K(), g.V().RatString(), g.C().RatString())

	// Offline: the inventor announces the equilibrium probability.
	ann, err := core.AnnounceParticipation("auction-house", "entry-game", g, participation.LowBranch)
	if err != nil {
		return err
	}
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		return err
	}
	var members []quorum.Member
	for _, id := range []string{"v1", "v2", "v3"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			return err
		}
		defer vs.Close()
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	panel, err := quorum.New(quorum.Config{Members: members, Registry: reputation.NewRegistry()})
	if err != nil {
		return err
	}

	// Each firm is an agent; all of them verify the same advice and can
	// cross-check they were given the same p (symmetric game, §5).
	ctx := context.Background()
	for _, firm := range []string{"firm-a", "firm-b", "firm-c"} {
		announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(inventor))
		if err != nil {
			return err
		}
		res, err := panel.VerifyAnnouncement(ctx, announced)
		if err != nil {
			return err
		}
		fmt.Printf("%s: accepted=%v p=%s expected gain=%s (= v/16)\n",
			firm, res.Accepted, res.Verdict.Details["p"], res.Verdict.Details["expectedGain"])
	}

	// Online: firms decide in sequence; the inventor advises the last mover.
	p := numeric.MustRat("1/4")
	honest, err := g.AnalyzeOnline(p, false)
	if err != nil {
		return err
	}
	flipped, err := g.AnalyzeOnline(p, true)
	if err != nil {
		return err
	}
	bound := numeric.Div(numeric.Mul(g.V(), numeric.I(5)), numeric.I(24)) // 5v/24
	offline := g.GainAbstain(p)                                           // v/16
	fmt.Println("\nonline participation (early movers play p = 1/4):")
	fmt.Printf("  last mover expected gain, honest advice:  %s\n", honest.LastMoverGain.RatString())
	fmt.Printf("  last mover expected gain, flipped advice: %s  <- false advice causes a loss\n",
		flipped.LastMoverGain.RatString())
	fmt.Printf("  random-order per-firm gain: %s (paper bound 5v/24 = %s; offline v/16 = %s)\n",
		honest.RandomOrderGain.RatString(), bound.RatString(), offline.RatString())

	// The last mover can verify the advice itself given the disclosed count.
	for count := 0; count <= 2; count++ {
		advice, gain, err := g.LastMoverAdvice(count)
		if err != nil {
			return err
		}
		if _, err := g.VerifyLastMoverAdvice(count, advice); err != nil {
			return fmt.Errorf("honest last-mover advice failed verification: %w", err)
		}
		wrong := participation.Decision(!bool(advice))
		_, flipErr := g.VerifyLastMoverAdvice(count, wrong)
		fmt.Printf("  count=%d: advice=%-11s gain=%-3s flipped advice rejected=%v\n",
			count, advice, gain.RatString(), flipErr != nil)
	}
	return nil
}
