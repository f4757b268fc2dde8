package rationality

// The paper-claim ledger: one row per artefact of the paper that the
// library reproduces, naming the package test that checks it, the functions
// that test exercises and the cmd/experiments run that regenerates its
// numbers. A function the ledger names counts as reached for
// TestExportsAreReached (reach_test.go) even when no program calls it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// paperClaim is one ledger row.
type paperClaim struct {
	section  string   // the paper section, as doc.go's package map labels it
	artefact string   // what the paper claims
	pkg      string   // the package under internal/ that holds test and funcs
	test     string   // the test in pkg that reproduces the artefact
	funcs    []string // what the test exercises: "Func" or "Type.Method" in pkg
	// experiment is the cmd/experiments ID (E1–E12) that prints the
	// artefact's numbers, or "" when no experiment does.
	experiment string
}

var paperClaims = []paperClaim{
	{"§3", "Fig. 2: maximal and minimal pure Nash equilibria, ≤u-incomparability",
		"game", "TestBattleOfSexesEquilibria",
		[]string{"Game.IsMaxNash", "Game.IsMinNash", "Game.Incomparable"}, ""},
	{"§3", "the enumeration certificate (allStrat, allNash, NashMax) and its size blow-up",
		"proof", "TestCheckRejectsForgeries", []string{"Build", "Check"}, "E7"},
	{"§4", "Lemma 1: the P1 verifier reads n+m bits and solves one linear system",
		"interactive", "TestP1RoundTripMatchingPennies",
		[]string{"BuildP1Advice", "VerifyP1", "P1Advice.BitsOnWire"}, "E4"},
	{"Fig. 1", "a positive affine map of one player's payoffs never flips a verdict (the machine-word path's soundness)",
		"core", "TestPositiveAffineKeepsPolarity",
		[]string{"P1Procedure.Verify", "NAgentProcedure.Verify", "CorrelatedProcedure.Verify", "EnumerationProcedure.Verify"}, ""},
	{"§4", "P1 (Fig. 3): advice that is not an equilibrium never verifies",
		"interactive", "TestP1SoundnessProperty", []string{"VerifyP1"}, ""},
	{"§4", "P2 (Fig. 4): the honest prover is accepted",
		"interactive", "TestP2AcceptsHonestProver", []string{"VerifyP2"}, ""},
	{"§4", "Fig. 4: P2's answers are bound by commitments; only queried bits open",
		"commitment", "TestCommitBitsAndOpenBit", []string{"CommitBits", "OpenBit"}, ""},
	{"§4", "Remark 3: P2's query count against the hidden support size",
		"interactive", "TestP2QueryCountScaling", []string{"NewHonestProver", "VerifyP2"}, "E5"},
	{"§4", "P2 soundness: a prover that inflates the other agent's λ is rejected",
		"interactive", "TestP2RejectsLyingLambda", []string{"VerifyP2"}, ""},
	{"§4", "P2 soundness: a prover that equivocates on a bit is rejected",
		"interactive", "TestP2RejectsEquivocation", []string{"VerifyP2"}, ""},
	{"§4", "P2 soundness: a prover that denies support membership is not accepted",
		"interactive", "TestP2RejectsDenierAsInconclusive", []string{"NewDenyingProver", "VerifyP2"}, ""},
	{"§4", "P2 soundness: a prover that overclaims the support is rejected",
		"interactive", "TestP2RejectsOverclaiming", []string{"NewOverclaimingProver", "VerifyP2"}, ""},
	{"§4", "P2 soundness: a prover that commits to a fake equilibrium is rejected",
		"interactive", "TestP2RejectsFakeEquilibrium", []string{"FakeEquilibriumProver", "VerifyP2"}, ""},
	{"§4", "Fig. 5 / Remark 2: P2 leaves the column agent's equilibrium ambiguous",
		"bimatrix", "TestFig5Equilibria", []string{"Game.FindEquilibrium", "Game.IsEquilibrium"}, "E9"},
	{"§5", "the symmetric participation equilibrium: p = 1/4, gain v/16",
		"participation", "TestPaperEquilibriumNumbers", []string{"Game.VerifyAdvice", "Game.PivotGap"}, "E2"},
	{"§5", "the on-line last mover and its 5v/24 bound",
		"participation", "TestOnlineOutcomePaperBound", []string{"Game.AnalyzeOnline"}, "E3"},
	{"§6", "Fig. 6: the diamond network, delays 2k+3 against 2k+2",
		"congestion", "TestFig6ReproducesPaperDelays", []string{"BuildFig6"}, "E6"},
	{"§6", "Fig. 7: the inventor beats greedy in most iterations as links grow",
		"links", "TestSimulatePointShape", []string{"SimulatePoint"}, "E1"},
	{"§6", "Lemma 2: greedy makespan ≤ (2 − 1/m)·OPT",
		"links", "TestLemma2AgainstExactOPT",
		[]string{"GreedyBoundHolds", "BoundAgainstOPT", "OptimalMakespan"}, "E8"},
	{"§6", "the pure price of anarchy: worst Nash makespan ≤ (2 − 2/(m+1))·OPT",
		"links", "TestPoABoundProperty", []string{"NashAssignmentExtremes", "PoABoundHolds"}, ""},
	{"§6", "the inventor's two statistics models: prior-known and dynamic average",
		"links", "TestPriorVsDynamicAblation", []string{"NewUniformPrior"}, "E10"},
	{"§6", "agents that follow the inventor with probability p",
		"links", "TestAdoptionSweepMonotoneTrend", []string{"AdoptionSweep"}, "E11"},
	{"§7", "the lottery: tickets committed before the draw, proven after it",
		"lottery", "TestProveAndVerifyTicket", []string{"Company.ProveTicket", "VerifyTicketProof"}, ""},
	{"§7", "the reputation rules: agreement with the majority raises a party's standing",
		"reputation", "TestReputationUpdates", []string{"Registry.ReportAgreement", "Registry.Reputation"}, ""},
}

// TestPaperClaims checks the ledger against the source: every named test
// exists and calls every function its row names, every named function is
// declared, the package map in doc.go and the experiment table in
// cmd/experiments agree with the rows, and every experiment that cites
// the paper has a row.
func TestPaperClaims(t *testing.T) {
	docMap := docPackageMap(t)
	experiments := experimentIDs(t)
	covered := map[string]bool{} // doc.go packages with a row
	cited := map[string]bool{}   // experiment IDs with a row
	for _, row := range paperClaims {
		dir := filepath.Join("internal", row.pkg)
		label, ok := docMap[dir]
		switch {
		case !ok:
			t.Errorf("%s: package %s is missing from doc.go's package map", row.test, dir)
		case !strings.Contains(label, row.section):
			t.Errorf("%s: doc.go labels %s %q, the ledger says %s", row.test, dir, label, row.section)
		}
		covered[dir] = true
		if row.experiment != "" {
			if _, ok := experiments[row.experiment]; !ok {
				t.Errorf("%s: experiment %s is not in cmd/experiments' table", row.test, row.experiment)
			}
			cited[row.experiment] = true
		}

		tests, decls := packageFuncs(t, dir)
		body, ok := tests[row.test]
		if !ok {
			t.Errorf("%s: no such test in %s", row.test, dir)
			continue
		}
		for _, name := range row.funcs {
			if !decls[name] {
				t.Errorf("%s: %s declares no function %s", row.test, dir, name)
			}
			short := name[strings.LastIndexByte(name, '.')+1:]
			if !mentions(body, short) {
				t.Errorf("%s does not call %s, which its ledger row names", row.test, name)
			}
		}
	}
	for dir, label := range docMap {
		if strings.HasPrefix(label, "§") && !covered[dir] {
			t.Errorf("doc.go maps %s to %s, but no ledger row names a test there", dir, label)
		}
	}
	for id, desc := range experiments {
		if citesPaper.MatchString(desc) && !cited[id] {
			t.Errorf("experiment %s (%q) reproduces the paper but no ledger row names it", id, desc)
		}
	}
}

// citesPaper matches an experiment description that names a part of the
// paper.
var citesPaper = regexp.MustCompile(`§|Fig\.|Lemma|Remark`)

// docPackageMap parses doc.go's package comment and returns, for every
// "label   internal/pkg   description" line, the label by directory.
func docPackageMap(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "doc.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		i := strings.Index(line, "internal/")
		if i < 0 || !strings.HasPrefix(line, "\t") {
			continue
		}
		dir := strings.Fields(line[i:])[0]
		out[filepath.FromSlash(dir)] = strings.TrimSpace(line[:i])
	}
	if len(out) == 0 {
		t.Fatal("doc.go has no package map")
	}
	return out
}

// experimentIDs parses cmd/experiments' experiment table and returns each
// entry's description by its ID, the "E<n>" its description opens with.
func experimentIDs(t *testing.T) map[string]string {
	t.Helper()
	path := filepath.Join("cmd", "experiments", "main.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := regexp.MustCompile(`^(E\d+):`)
	out := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "experiments" || len(vs.Values) != 1 {
			return true
		}
		table, ok := vs.Values[0].(*ast.CompositeLit)
		if !ok {
			return false
		}
		for _, elt := range table.Elts {
			entry, ok := elt.(*ast.CompositeLit)
			if !ok || len(entry.Elts) < 2 {
				continue
			}
			lit, ok := entry.Elts[1].(*ast.BasicLit)
			if !ok {
				continue
			}
			desc, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			m := id.FindStringSubmatch(desc)
			if m == nil {
				t.Errorf("%s: experiment description %q does not open with its ID", path, desc)
				continue
			}
			out[m[1]] = desc
		}
		return false
	})
	if len(out) == 0 {
		t.Fatalf("%s has no experiments table", path)
	}
	return out
}

// packageFuncs parses every Go file of dir and returns the bodies of its
// Test functions by name and the set of functions its non-test files
// declare, as "Func" or "Type.Method".
func packageFuncs(t *testing.T, dir string) (tests map[string]*ast.BlockStmt, decls map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	tests, decls = map[string]*ast.BlockStmt{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		isTest := strings.HasSuffix(path, "_test.go")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case isTest && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test"):
				tests[fd.Name.Name] = fd.Body
			case !isTest:
				decls[funcDisplayName(fd)] = true
			}
		}
	}
	return tests, decls
}

// mentions reports whether body refers to an identifier called name.
func mentions(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
