package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"

	"rationality/internal/bimatrix"
	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
)

// catalogSize is the number of announcement templates. It is well below the
// servers' -cache-size (4096) so a warmed catalog stays resident, and large
// enough that Zipf(1.1) over it still touches a few hundred distinct keys.
const catalogSize = 512

// The catalog's *structure* is the same for every seed: slot i always holds
// the same format at the same size, forged or not. Only payoffs, loads and
// probabilities are drawn from the seed, and they are drawn at fixed width
// (two-digit integers, small denominators). Request and reply sizes, and the
// mix of cheap and expensive procedures, therefore barely move between seeds,
// which is what lets ten runs on ten seeds agree within the bounds.
var slotFormats = [...]string{
	core.FormatEnumeration,
	core.FormatP1,
	core.FormatNAgent,
	core.FormatParticipation,
	core.FormatCorrelated,
	core.FormatLastMover,
	core.FormatLinksRouting,
}

// forgeable are the formats with a bundled dishonest inventor.
var forgeable = [...]string{
	core.FormatEnumeration,
	core.FormatP1,
	core.FormatParticipation,
	core.FormatLastMover,
}

// forgedEvery makes one slot in twenty a forgery (26 of 512, 5.1%).
const forgedEvery = 20

// entry is one catalog template: an announcement plus the verdict an honest
// verifier must return for it.
type entry struct {
	Slot   int
	Ann    core.Announcement
	Accept bool
	// Game == gameHead + name + gameTail; a fresh request swaps the name.
	gameHead, gameTail []byte
	// msg is the unary verify request for the template, encoded once.
	req core.VerifyRequest
}

// catalog is the seeded set of announcement templates.
type catalog struct {
	Seed    int64
	Entries []*entry
}

func slotShape(slot int) (format string, size int, forged bool) {
	format = slotFormats[slot%len(slotFormats)]
	size = (slot / len(slotFormats)) % 7
	if slot%forgedEvery == 3 {
		forged = true
		format = forgeable[(slot/forgedEvery)%len(forgeable)]
	}
	return format, size, forged
}

func slotName(slot int) string { return fmt.Sprintf("cat-%03d", slot) }

// buildCatalog makes the catalog for a seed. Every slot draws from its own
// source, so a change to one format's generator leaves the others' bytes alone.
func buildCatalog(seed int64) (*catalog, error) {
	c := &catalog{Seed: seed, Entries: make([]*entry, catalogSize)}
	for slot := range c.Entries {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(slot)))
		format, size, forged := slotShape(slot)
		ann, err := buildAnnouncement(rng, slotName(slot), format, size, forged)
		if err != nil {
			return nil, fmt.Errorf("catalog slot %d (%s): %w", slot, format, err)
		}
		e := &entry{Slot: slot, Ann: ann, Accept: !forged}
		if err := e.splitName(slotName(slot)); err != nil {
			return nil, fmt.Errorf("catalog slot %d (%s): %w", slot, format, err)
		}
		e.req = core.VerifyRequest{Format: ann.Format, Game: e.Ann.Game, Advice: ann.Advice, Proof: ann.Proof}
		c.Entries[slot] = e
	}
	return c, nil
}

// splitName finds the game's name so fresh variants can be cut cheaply. A
// game spec without a name field (links-routing) gets one: the procedure
// ignores unknown fields and the request digest covers the bytes.
func (e *entry) splitName(name string) error {
	needle := []byte(`"name":"` + name + `"`)
	g := []byte(e.Ann.Game)
	i := bytes.Index(g, needle)
	if i < 0 {
		if len(g) < 2 || g[0] != '{' {
			return fmt.Errorf("game spec is not a JSON object")
		}
		g = append(append([]byte(`{`), needle...), append([]byte(`,`), g[1:]...)...)
		e.Ann.Game = json.RawMessage(g)
		i = 1
	}
	cut := i + len(`"name":"`)
	e.gameHead = append([]byte(nil), g[:cut]...)
	e.gameTail = append([]byte(nil), g[cut+len(name):]...)
	return nil
}

// fresh returns the template with its game renamed: same procedure, same
// verdict, new digest, so the verifier runs the procedure again. The suffix
// has fixed width so fresh requests all have the template's size plus 17.
func (e *entry) fresh(id uint64) core.VerifyRequest {
	g := make([]byte, 0, len(e.Ann.Game)+17)
	g = append(g, e.gameHead...)
	g = append(g, slotName(e.Slot)...)
	g = fmt.Appendf(g, "-%016x", id)
	g = append(g, e.gameTail...)
	r := e.req
	r.Game = g
	return r
}

// pay draws a two-digit payoff, so every payoff is the same width on the wire.
func pay(rng *rand.Rand) int64 { return 10 + rng.Int63n(90) }

const inventorID = "bench-inventor"

func buildAnnouncement(rng *rand.Rand, name, format string, size int, forged bool) (core.Announcement, error) {
	switch format {
	case core.FormatEnumeration:
		return buildEnumeration(rng, name, size, forged)
	case core.FormatP1:
		return buildP1(rng, name, size, forged)
	case core.FormatNAgent:
		return buildNAgent(rng, name, size)
	case core.FormatParticipation:
		g, p := participationGame(rng, size)
		if forged {
			// An equilibrium probability shifted by 1/97 satisfies no
			// indifference condition of these small games.
			p = numeric.Add(p, numeric.R(1, 97))
		}
		// AnnounceParticipationForged is the helper that takes p as given;
		// with the exact root it is an honest announcement. The solving
		// inventor (AnnounceParticipation) scans two thousand candidate
		// roots, 25 ms a game, which would make catalog set-up dominate.
		return core.AnnounceParticipationForged(inventorID, name, g, p.RatString()), nil
	case core.FormatCorrelated:
		counts := [][]int{{2, 2}, {3, 3}, {2, 2, 2}, {2, 3}}[size%4]
		return core.AnnounceCorrelated(inventorID, randomGame(rng, name, counts))
	case core.FormatLastMover:
		g, _ := participationGame(rng, size)
		if forged {
			return core.AnnounceLastMoverFlipped(inventorID, name, g)
		}
		return core.AnnounceLastMover(inventorID, name, g)
	case core.FormatLinksRouting:
		spec := core.LinksRoutingSpec{
			Loads:     make([]int64, 2+size),
			AgentLoad: pay(rng),
			Remaining: size,
		}
		for i := range spec.Loads {
			spec.Loads[i] = pay(rng)
		}
		spec.ObservedCount = 1 + size
		spec.ObservedTotal = spec.AgentLoad + int64(size)*pay(rng)
		return core.AnnounceLinksRouting(inventorID, spec)
	}
	return core.Announcement{}, fmt.Errorf("no generator for format %q", format)
}

func randomGame(rng *rand.Rand, name string, counts []int) *game.Game {
	g, err := game.FromFunc(name, counts, func(int, game.Profile) *big.Rat { return numeric.I(pay(rng)) })
	if err != nil {
		panic(err) // counts are literals above
	}
	return g
}

// buildEnumeration draws random 3x3 and 2x2x2 games until one has a pure
// equilibrium to certify (about four in five do).
func buildEnumeration(rng *rand.Rand, name string, size int, forged bool) (core.Announcement, error) {
	counts := []int{3, 3}
	if size%2 == 1 {
		counts = []int{2, 2, 2}
	}
	for try := 0; try < 64; try++ {
		g := randomGame(rng, name, counts)
		ann, err := core.AnnounceEnumeration(inventorID, g, proof.MaxNash)
		if err != nil {
			continue
		}
		if !forged {
			return ann, nil
		}
		var advised game.Profile
		if err := json.Unmarshal(ann.Advice, &advised); err != nil {
			return core.Announcement{}, err
		}
		advised[0] = (advised[0] + 1) % counts[0]
		return core.AnnounceEnumerationForged(inventorID, g, advised)
	}
	return core.Announcement{}, fmt.Errorf("no random game with a pure equilibrium in 64 draws")
}

// maxProverSize is the largest hide-and-seek game whose support enumeration
// (exponential in k: 0.1 s at k = 6) the catalog runs; above it the known
// full supports are announced directly, as an inventor who knows the game's
// structure would.
const maxProverSize = 3

// buildP1 makes a k x k hide-and-seek game, k = 2..8: A is diagonal with
// seeded positive weights, B = -A. Its only equilibrium is fully mixed, so the
// verifier's indifference solve is a full k x k system.
func buildP1(rng *rand.Rand, name string, size int, forged bool) (core.Announcement, error) {
	k := 2 + size
	a := make([][]int64, k)
	b := make([][]int64, k)
	full := make([]int, k)
	for i := range a {
		a[i] = make([]int64, k)
		b[i] = make([]int64, k)
		a[i][i] = pay(rng)
		b[i][i] = -a[i][i]
		full[i] = i
	}
	g := bimatrix.FromInts(a, b)
	switch {
	case forged:
		// A single hiding place is never a best reply to itself.
		return core.AnnounceP1Forged(inventorID, name, g, []int{0}, []int{0}), nil
	case k <= maxProverSize:
		return core.AnnounceP1(inventorID, name, g)
	default:
		// AnnounceP1Forged is the helper that takes supports as given; with
		// the true supports the announcement is honest.
		return core.AnnounceP1Forged(inventorID, name, g, full, full), nil
	}
}

// buildNAgent makes a three-agent game in which an agent's payoff ignores its
// own action, so every mixed profile is an equilibrium, and announces a seeded
// profile with small denominators.
func buildNAgent(rng *rand.Rand, name string, size int) (core.Announcement, error) {
	counts := []int{2, 2, 2}
	if size%2 == 1 {
		counts = []int{2, 3, 2}
	}
	table := make(map[string]*big.Rat)
	g, err := game.FromFunc(name, counts, func(agent int, p game.Profile) *big.Rat {
		others := p.Clone()
		others[agent] = 0
		key := fmt.Sprint(agent, others)
		if table[key] == nil {
			table[key] = numeric.I(pay(rng))
		}
		return table[key]
	})
	if err != nil {
		return core.Announcement{}, err
	}
	mp := make(game.MixedProfile, len(counts))
	for i, n := range counts {
		v := numeric.NewVec(n)
		rest := int64(8)
		for s := 0; s < n-1; s++ {
			w := 1 + rng.Int63n(rest-int64(n-1-s))
			v.SetAt(s, numeric.R(w, 8))
			rest -= w
		}
		v.SetAt(n-1, numeric.R(rest, 8))
		mp[i] = v
	}
	return core.AnnounceNAgent(inventorID, g, mp)
}

// participationGame picks n, k and an equilibrium probability p = a/8 and sets
// the fee to the pivot value at p, so p is an exact root of Eq. (5) and the
// verifier's check is exact.
func participationGame(rng *rand.Rand, size int) (*participation.Game, *big.Rat) {
	n := 3 + size%4
	k := 2 + size%(n-1)
	v := numeric.I(pay(rng))
	p := numeric.R(1+rng.Int63n(3), 8)
	c := numeric.Mul(v, numeric.Mul(numeric.Binomial(n-1, k-1),
		numeric.Mul(numeric.Pow(p, k-1), numeric.Pow(numeric.Sub(numeric.One(), p), n-k))))
	return participation.MustNew(n, k, v, c), p
}
