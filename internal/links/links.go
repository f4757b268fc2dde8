// Package links implements §6's parallel-links on-line scheduling model and
// the paper's single plotted experiment (Fig. 7).
//
// The network is m parallel identical (equispeed) links from a source s to a
// sink t. Agents arrive one at a time with integer loads and pick a link
// irrevocably. Two strategies are compared:
//
//   - Greedy: join the least loaded link at arrival time. Lemma 2 shows the
//     resulting makespan is at most (2 − 1/m)·OPT.
//   - Inventor: the game inventor tracks the average load w̄i observed so
//     far and, knowing that n − i more agents are expected, computes an LPT
//     ("each load to the least loaded link, greatest first") Nash assignment
//     of the agent's own load plus n − i copies of w̄i on top of the current
//     congestion, and suggests the link its load landed on.
//
// Fig. 7 plots, for m = 2..500 links and 1000 agents with loads uniform on
// [0, 1000], the percentage of iterations in which the inventor's final
// assignment is strictly better (smaller makespan) than greedy's.
//
// Loads are int64 throughout: the paper's workload is integral, and integer
// arithmetic keeps the million-placement simulations exact and fast.
package links

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
)

// System is the state of m parallel links: the total load assigned to each.
type System struct {
	loads []int64
}

// NewSystem returns an empty system of m links.
func NewSystem(m int) (*System, error) {
	if m < 1 {
		return nil, fmt.Errorf("links: need at least one link, got %d", m)
	}
	return &System{loads: make([]int64, m)}, nil
}

// MustSystem is NewSystem that panics on error.
func MustSystem(m int) *System {
	s, err := NewSystem(m)
	if err != nil {
		panic(err)
	}
	return s
}

// M returns the number of links.
func (s *System) M() int { return len(s.loads) }

// Loads returns a copy of the per-link loads.
func (s *System) Loads() []int64 {
	out := make([]int64, len(s.loads))
	copy(out, s.loads)
	return out
}

// LeastLoaded returns the index of the least loaded link, ties to the lowest
// index.
func (s *System) LeastLoaded() int {
	best := 0
	for i := 1; i < len(s.loads); i++ {
		if s.loads[i] < s.loads[best] {
			best = i
		}
	}
	return best
}

// Assign adds load w to the given link.
func (s *System) Assign(link int, w int64) error {
	if link < 0 || link >= len(s.loads) {
		return fmt.Errorf("links: link %d out of range [0, %d)", link, len(s.loads))
	}
	if w < 0 {
		return fmt.Errorf("links: negative load %d", w)
	}
	s.loads[link] += w
	return nil
}

// Makespan returns the maximum link load.
func (s *System) Makespan() int64 {
	best := s.loads[0]
	for _, l := range s.loads[1:] {
		if l > best {
			best = l
		}
	}
	return best
}

// Chooser selects a link for an arriving agent.
type Chooser interface {
	// Choose picks a link for an agent of load w given the current system
	// state, the number of agents still expected after this one, and the
	// total load observed so far including w (the inventor's statistic).
	Choose(s *System, w int64, remaining int, observedTotal int64, observedCount int) int
}

// Greedy is the natural strategy: the least loaded link at arrival time.
type Greedy struct{}

// Choose implements Chooser.
func (Greedy) Choose(s *System, _ int64, _ int, _ int64, _ int) int {
	return s.LeastLoaded()
}

// Inventor implements the paper's suggested strategy. It assigns, by LPT on
// top of the current congestion, the agent's own load together with
// `remaining` phantom loads of size w̄ (the running average, kept exact as
// observedTotal/observedCount), and returns the link the real load landed
// on.
type Inventor struct{}

// Choose implements Chooser.
func (Inventor) Choose(s *System, w int64, remaining int, observedTotal int64, observedCount int) int {
	if remaining <= 0 {
		return s.LeastLoaded()
	}
	// Loads to place: the real load w and `remaining` copies of the average.
	// All phantom loads are equal, so LPT ordering only needs to decide
	// whether w precedes or follows the block of averages. Compare w with
	// w̄ = observedTotal/observedCount without division:
	// w > w̄  ⇔  w·observedCount > observedTotal.
	wFirst := w*int64(observedCount) >= observedTotal

	// Scale every load by observedCount so the phantom average
	// observedTotal/observedCount stays integral: comparisons are invariant
	// under the common positive factor.
	scale := int64(observedCount)
	h := newLinkHeap(s, scale)
	if wFirst {
		chosen := h.place(w * scale)
		for r := 0; r < remaining; r++ {
			h.place(observedTotal)
		}
		return chosen
	}
	for r := 0; r < remaining; r++ {
		h.place(observedTotal)
	}
	return h.place(w * scale)
}

// linkHeap is a min-heap of links by load, ties to the lowest link index so
// that the LPT placement matches LeastLoaded's deterministic tie-break.
type linkLoad struct {
	link int
	load int64
}

type linkHeap []linkLoad

// newLinkHeap snapshots the system's loads scaled by the given positive
// factor (so fractional phantom loads stay integral) as a placement heap.
func newLinkHeap(s *System, scale int64) *linkHeap {
	h := make(linkHeap, s.M())
	for i, l := range s.loads {
		h[i] = linkLoad{link: i, load: l * scale}
	}
	heap.Init(&h)
	return &h
}

// place assigns a (scaled) load to the least loaded link and returns the
// chosen link.
func (h *linkHeap) place(load int64) int {
	top := (*h)[0]
	link := top.link
	top.load += load
	(*h)[0] = top
	heap.Fix(h, 0)
	return link
}

func (h linkHeap) Len() int { return len(h) }
func (h linkHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].link < h[j].link
}
func (h linkHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *linkHeap) Push(x any)   { *h = append(*h, x.(linkLoad)) }
func (h *linkHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// Run plays the whole arrival sequence with the chooser and returns the
// final system.
func Run(m int, loads []int64, c Chooser) (*System, error) {
	s, err := NewSystem(m)
	if err != nil {
		return nil, err
	}
	var observedTotal int64
	for i, w := range loads {
		if w < 0 {
			return nil, fmt.Errorf("links: negative load at position %d", i)
		}
		observedTotal += w
		link := c.Choose(s, w, len(loads)-i-1, observedTotal, i+1)
		if err := s.Assign(link, w); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// UniformLoads draws n loads uniformly from {1, ..., maxLoad} — the paper's
// "uniform load distribution in [0, 1000]" workload (zero loads are
// excluded as degenerate: they never affect any makespan).
func UniformLoads(rng *rand.Rand, n int, maxLoad int64) []int64 {
	loads := make([]int64, n)
	for i := range loads {
		loads[i] = 1 + rng.Int63n(maxLoad)
	}
	return loads
}

// LPTMakespan computes the makespan of the offline LPT assignment of the
// loads — a strong (4/3-approximate) baseline used by tests.
func LPTMakespan(m int, loads []int64) int64 {
	sorted := make([]int64, len(loads))
	copy(sorted, loads)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	s := MustSystem(m)
	for _, w := range sorted {
		if err := s.Assign(s.LeastLoaded(), w); err != nil {
			panic(err) // unreachable: loads validated by callers
		}
	}
	return s.Makespan()
}
