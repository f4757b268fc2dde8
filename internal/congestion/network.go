// Package congestion implements the paper's §6 on-line network congestion
// games: communication networks N = (V, E, (de)e∈E) with non-decreasing
// per-edge delay functions, configurations of agent paths, per-agent delays
// λi, total congestion Λ, congestion-aware shortest paths, and the Fig. 6
// diamond example showing why a greedy best reply at arrival time need not
// remain a best reply when the game ends.
package congestion

import (
	"fmt"
	"math/big"

	"rationality/internal/numeric"
)

// DelayFunc is a non-decreasing delay function de: load ↦ delay. The
// congestion machinery assumes monotonicity; constructors in this package
// enforce it.
type DelayFunc interface {
	// Eval returns the delay at the given total load. Implementations must
	// be non-decreasing in the load and must not retain or mutate it.
	Eval(load *big.Rat) *big.Rat
	// String renders the function for logs and proofs.
	String() string
}

// LinearDelay is d(x) = A·x + B with A, B >= 0. The paper's Fig. 6 uses the
// identity d(x) = x (A = 1, B = 0).
type LinearDelay struct {
	A *big.Rat
	B *big.Rat
}

// Identity returns the delay d(x) = x.
func Identity() *LinearDelay {
	return &LinearDelay{A: numeric.One(), B: numeric.Zero()}
}

// Eval implements DelayFunc.
func (d *LinearDelay) Eval(load *big.Rat) *big.Rat {
	return numeric.Add(numeric.Mul(d.A, load), d.B)
}

// String implements DelayFunc.
func (d *LinearDelay) String() string {
	return fmt.Sprintf("%s*x + %s", d.A.RatString(), d.B.RatString())
}

// MonomialDelay is d(x) = C·x^Degree for C >= 0, Degree >= 1 — the standard
// polynomial congestion cost family.
type MonomialDelay struct {
	C      *big.Rat
	Degree int
}

// Eval implements DelayFunc.
func (d *MonomialDelay) Eval(load *big.Rat) *big.Rat {
	return numeric.Mul(d.C, numeric.Pow(load, d.Degree))
}

// String implements DelayFunc.
func (d *MonomialDelay) String() string {
	return fmt.Sprintf("%s*x^%d", d.C.RatString(), d.Degree)
}

// Edge is a directed arc with its delay function.
type Edge struct {
	ID    int
	From  int
	To    int
	Delay DelayFunc
}

// Network is a directed multigraph N = (V, E, (de)). Nodes are integers
// 0..NumNodes−1; parallel edges are allowed (the parallel-links model of §6
// is exactly a two-node network with m parallel edges).
type Network struct {
	numNodes int
	edges    []Edge
	out      [][]int // out[v] = IDs of edges leaving v
}

// NewNetwork creates a network with n isolated nodes.
func NewNetwork(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("congestion: network needs at least one node")
	}
	return &Network{numNodes: n, out: make([][]int, n)}, nil
}

// MustNetwork is NewNetwork that panics on error.
func MustNetwork(n int) *Network {
	net, err := NewNetwork(n)
	if err != nil {
		panic(err)
	}
	return net
}

// AddEdge appends a directed edge and returns its ID.
func (n *Network) AddEdge(from, to int, delay DelayFunc) (int, error) {
	if from < 0 || from >= n.numNodes || to < 0 || to >= n.numNodes {
		return 0, fmt.Errorf("congestion: edge endpoints (%d, %d) out of range", from, to)
	}
	if delay == nil {
		return 0, fmt.Errorf("congestion: nil delay function")
	}
	id := len(n.edges)
	n.edges = append(n.edges, Edge{ID: id, From: from, To: to, Delay: delay})
	n.out[from] = append(n.out[from], id)
	return id, nil
}

// MustAddEdge is AddEdge that panics on error.
func (n *Network) MustAddEdge(from, to int, delay DelayFunc) int {
	id, err := n.AddEdge(from, to, delay)
	if err != nil {
		panic(err)
	}
	return id
}

// NumNodes returns |V|.
func (n *Network) NumNodes() int { return n.numNodes }

// NumEdges returns |E|.
func (n *Network) NumEdges() int { return len(n.edges) }

// Edge returns the edge with the given ID.
func (n *Network) Edge(id int) Edge {
	return n.edges[id]
}

// Path is a sequence of edge IDs. ValidPath checks connectivity.
type Path []int

// ValidPath reports whether p is a connected directed path from src to sink
// in the network (non-empty, consecutive edges share endpoints).
func (n *Network) ValidPath(p Path, src, sink int) bool {
	if len(p) == 0 {
		return false
	}
	at := src
	for _, id := range p {
		if id < 0 || id >= len(n.edges) {
			return false
		}
		e := n.edges[id]
		if e.From != at {
			return false
		}
		at = e.To
	}
	return at == sink
}
