package congestion

import (
	"fmt"
	"math/big"

	"rationality/internal/numeric"
)

// AgentRecord is one routed agent: its commodity (si, ti), load wi, and the
// irrevocably chosen path πi.
type AgentRecord struct {
	Source int
	Sink   int
	Load   *big.Rat
	Path   Path
}

// Config is the network configuration π(i) after some agents have joined:
// per-edge total loads We plus the roster of routed agents.
type Config struct {
	net    *Network
	loads  []*big.Rat // per edge ID
	agents []AgentRecord
}

// NewConfig returns the empty configuration of the network.
func NewConfig(net *Network) *Config {
	loads := make([]*big.Rat, net.NumEdges())
	for i := range loads {
		loads[i] = new(big.Rat)
	}
	return &Config{net: net, loads: loads}
}

// Clone returns an independent copy of the configuration.
func (c *Config) Clone() *Config {
	cc := NewConfig(c.net)
	for i, l := range c.loads {
		cc.loads[i].Set(l)
	}
	cc.agents = make([]AgentRecord, len(c.agents))
	for i, a := range c.agents {
		cc.agents[i] = AgentRecord{
			Source: a.Source,
			Sink:   a.Sink,
			Load:   numeric.Copy(a.Load),
			Path:   append(Path(nil), a.Path...),
		}
	}
	return cc
}

// Join routes a new agent along path p with load w; the decision is
// irrevocable (the paper's model). It returns the agent's index.
func (c *Config) Join(src, sink int, w *big.Rat, p Path) (int, error) {
	if w.Sign() <= 0 {
		return 0, fmt.Errorf("congestion: agent load must be positive")
	}
	if !c.net.ValidPath(p, src, sink) {
		return 0, fmt.Errorf("congestion: %v is not a path from %d to %d", p, src, sink)
	}
	for _, e := range p {
		c.loads[e].Add(c.loads[e], w)
	}
	c.agents = append(c.agents, AgentRecord{
		Source: src,
		Sink:   sink,
		Load:   numeric.Copy(w),
		Path:   append(Path(nil), p...),
	})
	return len(c.agents) - 1, nil
}

// EdgeDelay returns de(We) for edge e under the current loads.
func (c *Config) EdgeDelay(e int) *big.Rat {
	return c.net.Edge(e).Delay.Eval(c.loads[e])
}

// PathDelay returns the delay currently experienced along path p:
// Σ_{e∈p} de(We).
func (c *Config) PathDelay(p Path) *big.Rat {
	total := numeric.Zero()
	for _, e := range p {
		total = numeric.Add(total, c.EdgeDelay(e))
	}
	return total
}

// AgentDelay returns λi(π), the delay agent i experiences under the current
// configuration.
func (c *Config) AgentDelay(i int) *big.Rat {
	return c.PathDelay(c.agents[i].Path)
}

// TotalCongestion returns Λ(π) = Σ_{e∈E} de(We), the inventor's objective.
func (c *Config) TotalCongestion() *big.Rat {
	total := numeric.Zero()
	for e := 0; e < c.net.NumEdges(); e++ {
		total = numeric.Add(total, c.EdgeDelay(e))
	}
	return total
}

// Reroute moves agent i onto a different valid path, updating the loads.
// The online game forbids this (decisions are irrevocable); it exists for
// best-response dynamics analyses of the offline game.
func (c *Config) Reroute(i int, p Path) error {
	if i < 0 || i >= len(c.agents) {
		return fmt.Errorf("congestion: agent %d out of range", i)
	}
	a := &c.agents[i]
	if !c.net.ValidPath(p, a.Source, a.Sink) {
		return fmt.Errorf("congestion: %v is not a path from %d to %d", p, a.Source, a.Sink)
	}
	for _, e := range a.Path {
		c.loads[e].Sub(c.loads[e], a.Load)
	}
	a.Path = append(Path(nil), p...)
	for _, e := range a.Path {
		c.loads[e].Add(c.loads[e], a.Load)
	}
	return nil
}
