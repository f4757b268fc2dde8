package links

import "fmt"

// Offline-equilibrium analysis of parallel-links assignments. A final
// assignment is a pure Nash equilibrium of the (offline) load-balancing
// game when no job can reduce its completion time by moving to another
// link: job i on link j improves by moving to k iff L_k + w_i < L_j.
// §6's central observation is that online best replies need not form such
// an equilibrium once later agents have arrived — greedy assignments are
// often not Nash in hindsight, while LPT assignments always are.

// IsNashAssignment reports whether the assignment is a pure Nash
// equilibrium of the offline game: no job strictly gains by moving.
func IsNashAssignment(m int, loads []int64, assignment []int) (bool, error) {
	if len(assignment) != len(loads) {
		return false, fmt.Errorf("links: %d assignments for %d loads", len(assignment), len(loads))
	}
	linkLoads := make([]int64, m)
	for i, link := range assignment {
		if link < 0 || link >= m {
			return false, fmt.Errorf("links: job %d assigned to link %d of %d", i, link, m)
		}
		if loads[i] < 0 {
			return false, fmt.Errorf("links: negative load %d", loads[i])
		}
		linkLoads[link] += loads[i]
	}
	for i, link := range assignment {
		for k := 0; k < m; k++ {
			if k == link {
				continue
			}
			if linkLoads[k]+loads[i] < linkLoads[link] {
				return false, nil
			}
		}
	}
	return true, nil
}
