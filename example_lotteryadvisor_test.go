package rationality_test

import (
	"crypto/rand"
	"fmt"
	"log"

	"rationality/internal/lottery"
)

// Example_lotteryadvisor plays out the lottery scenario from the paper's
// Discussion (§7): the lottery company knows that fake raffle tickets —
// almost indistinguishable from valid ones — are sold in a certain
// geographic area. Acting as a rationality authority, it advises
// participants to avoid that area and backs the advice with checkable
// proofs: per-ticket validity commitments published at issuance, opened on
// challenge. The disclosure is minimal but lets participants keep their
// winning chance at 1/x.
func Example_lotteryadvisor() {
	// Issue 8 tickets; a counterfeiter circulates 2 fakes downtown.
	tickets := []lottery.Ticket{
		{Serial: "A-001", Area: "uptown"},
		{Serial: "A-002", Area: "uptown"},
		{Serial: "A-003", Area: "midtown"},
		{Serial: "A-004", Area: "midtown"},
		{Serial: "A-005", Area: "downtown"},
		{Serial: "A-006", Area: "downtown"},
		{Serial: "X-666", Area: "downtown", Fake: true},
		{Serial: "X-667", Area: "downtown", Fake: true},
	}
	company, err := lottery.NewCompany(tickets, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}

	// Issuance: the commitments are public; the fake list is not.
	comms := company.Commitments()
	fmt.Printf("company published %d per-ticket validity commitments\n", len(comms))

	// The advice.
	fmt.Printf("advice: avoid buying in %v\n", company.AdviseAvoidAreas())
	fmt.Printf("winning chance of a valid ticket (1/x): %s\n", company.FairChance().RatString())
	for _, area := range []string{"uptown", "midtown", "downtown"} {
		fmt.Printf("  win probability buying at random in %-9s: %s\n",
			area, company.WinProbability(area).RatString())
	}
	fmt.Printf("value of following the advice (uptown vs downtown): %s\n",
		company.AdviceValue("uptown", "downtown").RatString())

	// A skeptical participant challenges two tickets; the company proves the
	// claims by opening exactly those commitments.
	for _, serial := range []string{"X-666", "A-005"} {
		open, err := company.ProveTicket(serial)
		if err != nil {
			log.Fatal(err)
		}
		valid, err := lottery.VerifyTicketProof(comms, serial, open)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("challenge %s: proof verified, valid=%v\n", serial, valid)
	}

	// Replaying a valid ticket's proof for a fake one fails: the serial is
	// bound into the committed value.
	openValid, err := company.ProveTicket("A-001")
	if err != nil {
		log.Fatal(err)
	}
	_, err = lottery.VerifyTicketProof(comms, "X-666", openValid)
	fmt.Println("replayed proof rejected:", err)
	// Output:
	// company published 8 per-ticket validity commitments
	// advice: avoid buying in [downtown]
	// winning chance of a valid ticket (1/x): 1/6
	//   win probability buying at random in uptown   : 1/6
	//   win probability buying at random in midtown  : 1/6
	//   win probability buying at random in downtown : 1/12
	// value of following the advice (uptown vs downtown): 1/12
	// challenge X-666: proof verified, valid=false
	// challenge A-005: proof verified, valid=true
	// replayed proof rejected: lottery: proof for "X-666": commitment: opening does not match commitment
}
