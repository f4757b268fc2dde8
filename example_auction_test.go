package rationality_test

import (
	"context"
	"fmt"
	"log"

	"rationality/internal/core"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// Example_auction reproduces the paper's §5 scenario end to end: n firms
// consider entering an auction with participation fee c and prize v. The
// inventor (the auctioneer) solves the symmetric equilibrium probability p
// — the hard root-finding step — and serves it with a checkable claim;
// each firm verifies Eq. (5) exactly before playing. The online variant
// then lets firms decide in sequence with the inventor advising the last
// mover, and contrasts honest with flipped (false) advice.
func Example_auction() {
	// The paper's numbers: n = 3 firms, k = 2 quorum, c/v = 3/8 (v=8, c=3).
	g, err := participation.New(3, 2, numeric.I(8), numeric.I(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("participation game: n=%d k=%d v=%s c=%s\n",
		g.N(), g.K(), g.V().RatString(), g.C().RatString())

	// Offline: the inventor announces the equilibrium probability.
	ann, err := core.AnnounceParticipation("auction-house", "entry-game", g, participation.LowBranch)
	if err != nil {
		log.Fatal(err)
	}
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		log.Fatal(err)
	}
	var members []quorum.Member
	for _, id := range []string{"v1", "v2", "v3"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			log.Fatal(err)
		}
		defer vs.Close()
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	panel, err := quorum.New(quorum.Config{Members: members, Registry: reputation.NewRegistry()})
	if err != nil {
		log.Fatal(err)
	}

	// Each firm is an agent; all of them verify the same advice and can
	// cross-check they were given the same p (symmetric game, §5).
	ctx := context.Background()
	for _, firm := range []string{"firm-a", "firm-b", "firm-c"} {
		announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(inventor))
		if err != nil {
			log.Fatal(err)
		}
		res, err := panel.VerifyAnnouncement(ctx, announced)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: accepted=%v p=%s expected gain=%s (= v/16)\n",
			firm, res.Accepted, res.Verdict.Details["p"], res.Verdict.Details["expectedGain"])
	}

	// Online: firms decide in sequence; the inventor advises the last mover.
	p := numeric.MustRat("1/4")
	honest, err := g.AnalyzeOnline(p, false)
	if err != nil {
		log.Fatal(err)
	}
	flipped, err := g.AnalyzeOnline(p, true)
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
		}
		if _, err := g.VerifyLastMoverAdvice(count, advice); err != nil {
			log.Fatalf("honest last-mover advice failed verification: %v", err)
		}
		_, flipErr := g.VerifyLastMoverAdvice(count, participation.Decision(!bool(advice)))
		fmt.Printf("  count=%d: advice=%-11s gain=%-3s flipped advice rejected=%v\n",
			count, advice, gain.RatString(), flipErr != nil)
	}
	// Output:
	// participation game: n=3 k=2 v=8 c=3
	// firm-a: accepted=true p=1/4 expected gain=1/2 (= v/16)
	// firm-b: accepted=true p=1/4 expected gain=1/2 (= v/16)
	// firm-c: accepted=true p=1/4 expected gain=1/2 (= v/16)
	//
	// online participation (early movers play p = 1/4):
	//   last mover expected gain, honest advice:  19/8
	//   last mover expected gain, flipped advice: -11/8  <- false advice causes a loss
	//   random-order per-firm gain: 21/8 (paper bound 5v/24 = 5/3; offline v/16 = 1/2)
	//   count=0: advice=abstain     gain=0   flipped advice rejected=true
	//   count=1: advice=participate gain=5   flipped advice rejected=true
	//   count=2: advice=abstain     gain=8   flipped advice rejected=true
}
