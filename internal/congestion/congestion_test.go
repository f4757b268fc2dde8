package congestion

import (
	"errors"
	"testing"

	"rationality/internal/numeric"
)

func TestDelayFuncs(t *testing.T) {
	lin := &LinearDelay{A: numeric.I(2), B: numeric.I(3)}
	if got := lin.Eval(numeric.I(5)); got.RatString() != "13" {
		t.Errorf("2x+3 at 5 = %s", got.RatString())
	}
	if got := Identity().Eval(numeric.R(7, 2)); got.RatString() != "7/2" {
		t.Errorf("identity = %s", got.RatString())
	}
	constant := &LinearDelay{A: numeric.Zero(), B: numeric.I(4)}
	if got := constant.Eval(numeric.I(100)); got.RatString() != "4" {
		t.Errorf("constant = %s", got.RatString())
	}
	mono := &MonomialDelay{C: numeric.I(2), Degree: 3}
	if got := mono.Eval(numeric.I(2)); got.RatString() != "16" {
		t.Errorf("2x³ at 2 = %s", got.RatString())
	}
	if lin.String() == "" || mono.String() == "" {
		t.Error("empty String()")
	}
}

func TestNetworkConstruction(t *testing.T) {
	if _, err := NewNetwork(0); err == nil {
		t.Error("empty network accepted")
	}
	net := MustNetwork(3)
	id0 := net.MustAddEdge(0, 1, Identity())
	id1 := net.MustAddEdge(1, 2, Identity())
	if id0 != 0 || id1 != 1 {
		t.Errorf("edge IDs = %d, %d", id0, id1)
	}
	if net.NumNodes() != 3 || net.NumEdges() != 2 {
		t.Errorf("shape: %d nodes %d edges", net.NumNodes(), net.NumEdges())
	}
	if _, err := net.AddEdge(0, 7, Identity()); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := net.AddEdge(0, 1, nil); err == nil {
		t.Error("nil delay accepted")
	}
	out := net.out[0]
	if len(out) != 1 || out[0] != 0 {
		t.Errorf("out[0] = %v", out)
	}
	// Parallel edges allowed.
	net.MustAddEdge(0, 1, Identity())
	if len(net.out[0]) != 2 {
		t.Error("parallel edge not registered")
	}
}

func TestValidPath(t *testing.T) {
	net := MustNetwork(3)
	e01 := net.MustAddEdge(0, 1, Identity())
	e12 := net.MustAddEdge(1, 2, Identity())
	if !net.ValidPath(Path{e01, e12}, 0, 2) {
		t.Error("valid path rejected")
	}
	if net.ValidPath(Path{e12, e01}, 0, 2) {
		t.Error("disconnected order accepted")
	}
	if net.ValidPath(Path{e01}, 0, 2) {
		t.Error("path ending early accepted")
	}
	if net.ValidPath(Path{}, 0, 0) {
		t.Error("empty path accepted")
	}
	if net.ValidPath(Path{99}, 0, 2) {
		t.Error("bogus edge ID accepted")
	}
}

func twoLinkNetwork() (*Network, int, int) {
	net := MustNetwork(2)
	l0 := net.MustAddEdge(0, 1, Identity())
	l1 := net.MustAddEdge(0, 1, Identity())
	return net, l0, l1
}

func TestConfigJoinAndLoads(t *testing.T) {
	net, l0, l1 := twoLinkNetwork()
	c := NewConfig(net)
	if _, err := c.Join(0, 1, numeric.I(3), Path{l0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(0, 1, numeric.I(2), Path{l1}); err != nil {
		t.Fatal(err)
	}
	if c.loads[l0].RatString() != "3" || c.loads[l1].RatString() != "2" {
		t.Errorf("loads = %s, %s", c.loads[l0], c.loads[l1])
	}
	if len(c.agents) != 2 {
		t.Errorf("%d agents joined, want 2", len(c.agents))
	}
	if got := c.AgentDelay(0); got.RatString() != "3" {
		t.Errorf("agent 0 delay = %s", got.RatString())
	}
	if got := c.TotalCongestion(); got.RatString() != "5" {
		t.Errorf("Λ = %s", got.RatString())
	}
	// Invalid joins.
	if _, err := c.Join(0, 1, numeric.Zero(), Path{l0}); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := c.Join(0, 1, numeric.One(), Path{}); err == nil {
		t.Error("empty path accepted")
	}
}

func TestReroute(t *testing.T) {
	net, l0, l1 := twoLinkNetwork()
	c := NewConfig(net)
	i, err := c.Join(0, 1, numeric.I(3), Path{l0})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reroute(i, Path{l1}); err != nil {
		t.Fatal(err)
	}
	if c.loads[l0].Sign() != 0 || c.loads[l1].RatString() != "3" {
		t.Errorf("loads after reroute = %s, %s", c.loads[l0], c.loads[l1])
	}
	if err := c.Reroute(9, Path{l1}); err == nil {
		t.Error("bogus agent accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	net, l0, l1 := twoLinkNetwork()
	c := NewConfig(net)
	i, _ := c.Join(0, 1, numeric.One(), Path{l0})
	cc := c.Clone()
	if err := cc.Reroute(i, Path{l1}); err != nil {
		t.Fatal(err)
	}
	if c.loads[l0].RatString() != "1" {
		t.Error("Clone shares load state")
	}
}

func TestShortestPathPicksLeastCongested(t *testing.T) {
	net, l0, l1 := twoLinkNetwork()
	c := NewConfig(net)
	if _, err := c.Join(0, 1, numeric.I(5), Path{l0}); err != nil {
		t.Fatal(err)
	}
	p, d, err := ShortestPath(c, 0, 1, numeric.One())
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0] != l1 {
		t.Errorf("path = %v, want the empty link", p)
	}
	if d.RatString() != "1" {
		t.Errorf("delay = %s", d.RatString())
	}
}

func TestShortestPathMultiHop(t *testing.T) {
	// 0→1→3 (cheap) vs 0→2→3 (expensive constant).
	net := MustNetwork(4)
	e01 := net.MustAddEdge(0, 1, Identity())
	e13 := net.MustAddEdge(1, 3, Identity())
	ten := &LinearDelay{A: numeric.Zero(), B: numeric.I(10)}
	net.MustAddEdge(0, 2, ten)
	net.MustAddEdge(2, 3, ten)
	c := NewConfig(net)
	p, d, err := ShortestPath(c, 0, 3, numeric.One())
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p[0] != e01 || p[1] != e13 {
		t.Errorf("path = %v", p)
	}
	if d.RatString() != "2" {
		t.Errorf("delay = %s", d.RatString())
	}
}

func TestShortestPathErrors(t *testing.T) {
	net := MustNetwork(3)
	net.MustAddEdge(0, 1, Identity())
	c := NewConfig(net)
	if _, _, err := ShortestPath(c, 0, 2, numeric.One()); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
	if _, _, err := ShortestPath(c, 0, 9, numeric.One()); err == nil {
		t.Error("bad sink accepted")
	}
	if _, _, err := ShortestPath(c, 0, 1, numeric.Zero()); err == nil {
		t.Error("zero load accepted")
	}
	if _, _, err := ShortestPath(c, 0, 0, numeric.One()); err == nil {
		t.Error("src == sink accepted")
	}
}

func TestFig6ReproducesPaperDelays(t *testing.T) {
	for _, k := range []int{0, 1, 2, 5, 10} {
		res, err := BuildFig6(k)
		if err != nil {
			t.Fatalf("k = %d: %v", k, err)
		}
		wantGreedy := numeric.I(int64(2*k + 3))
		wantAlt := numeric.I(int64(2*k + 2))
		if !numeric.Eq(res.GreedyFinalDelay, wantGreedy) {
			t.Errorf("k = %d: greedy final delay = %s, want %s",
				k, res.GreedyFinalDelay.RatString(), wantGreedy.RatString())
		}
		if !numeric.Eq(res.AlternativeFinalDelay, wantAlt) {
			t.Errorf("k = %d: alternative delay = %s, want %s",
				k, res.AlternativeFinalDelay.RatString(), wantAlt.RatString())
		}
	}
	if _, err := BuildFig6(-1); err == nil {
		t.Error("negative k accepted")
	}
}

func TestRunOnlineGreedy(t *testing.T) {
	net, l0, l1 := twoLinkNetwork()
	arrivals := []Arrival{
		{0, 1, numeric.I(3)},
		{0, 1, numeric.I(2)},
		{0, 1, numeric.I(1)},
	}
	res, err := RunOnline(net, arrivals, GreedyStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy: agent0 → link0 (3); agent1 → link1 (2); agent2 → link1 (3).
	if res.Config.loads[l0].RatString() != "3" || res.Config.loads[l1].RatString() != "3" {
		t.Errorf("loads = %s, %s", res.Config.loads[l0], res.Config.loads[l1])
	}
	if res.DelayAtJoin[2].RatString() != "3" {
		t.Errorf("agent 2 delay at join = %s", res.DelayAtJoin[2].RatString())
	}
	// Final delays can exceed join-time delays but never undercut them on
	// identity links.
	for i := range arrivals {
		if numeric.Lt(res.FinalDelay[i], res.DelayAtJoin[i]) {
			t.Errorf("agent %d final < join delay", i)
		}
	}
}
