// Package rationality is the module root of the rationality-authority
// library, a reproduction of
//
//	Dolev, Panagopoulou, Rabie, Schiller, Spirakis.
//	"Rationality Authority for Provable Rational Behavior."
//	Brief announcement PODC 2011; full version LNCS 9295 (2015).
//
// The library separates three parties: a possibly biased game INVENTOR that
// announces a game together with advised actions and a checkable proof of
// their feasibility and optimality; AGENTS that refuse to act on unverified
// advice; and reputation-bearing VERIFIERS that sell general-purpose
// verification procedures. Four proof systems are implemented, one per case
// study of the paper:
//
//   - §3 enumeration certificates for pure Nash equilibria of finite
//     strategic-form games (Coq-style, deliberately intractable);
//   - §4 P1 interactive proofs for bimatrix games (supports only; the
//     verifier recovers the equilibrium by solving a linear system) and P2
//     private proofs (random membership queries bound by hash commitments;
//     nothing about the other agent's strategy is revealed);
//   - §5 participation-game advice (the symmetric equilibrium probability,
//     verified exactly against the indifference condition), including the
//     online last-mover variant;
//   - §6 online congestion games (greedy vs. inventor-statistics routing on
//     networks and parallel links, reproducing the paper's Fig. 7).
//
// This package declares nothing. The work is done by the packages under
// internal/, one per part of the paper:
//
//	Fig. 1       internal/core          inventor, agent, procedures, announcements
//	§7           internal/reputation    verifier and inventor reputations, voting
//	§3           internal/game          strategic-form games, Nash predicates
//	§3           internal/proof         enumeration certificates and their checker
//	§4           internal/bimatrix      2-agent games in mixed strategies
//	§4           internal/interactive   protocols P1 (Fig. 3) and P2 (Fig. 4)
//	§4           internal/commitment    the hash commitments P2 binds answers with
//	§5           internal/participation the participation game and its last mover
//	§6           internal/congestion    on-line network congestion games
//	§6, Fig. 7   internal/links         parallel links and the Fig. 7 experiment
//	§7           internal/lottery       the lottery discussion scenario
//	footnote 3   internal/identity      Ed25519 identities and signed announcements
//	             internal/numeric       exact rationals, linear algebra, LP
//
// Which test reproduces which artefact of the paper is recorded in the
// paper-claim ledger (TestPaperClaims in claims_test.go): one row per
// artefact, naming the package test, the functions it exercises and the
// cmd/experiments ID (E1–E12) that prints its numbers. The test holds this
// map and the experiment table to the ledger, and TestExportsAreReached
// (reach_test.go) holds every exported function to being reached by a
// program or named by a row.
//
// The verifier party runs as internal/service (the one verifier server, in
// process or behind cmd/authority), with internal/transport, internal/store,
// internal/quorum, internal/gossip, internal/trust and internal/obs around
// it. The Example functions of example_*_test.go show each part in use; see
// README.md for a quickstart and DESIGN.md for the architecture.
package rationality
