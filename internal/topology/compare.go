package topology

import (
	"fmt"
	"strings"
)

// FamilyStats summarizes one interconnect family instance for hardware-cost
// comparison, in the spirit of the paper's Section 3 discussion of building
// fat-trees from fixed-arity switches.
type FamilyStats struct {
	Family      string
	Nodes       int
	Switches    int
	SwitchPorts int
	Links       int
	Levels      int
	Bisection   int
	// MaxDistPaths is the number of distinct shortest paths between two
	// maximally distant nodes.
	MaxDistPaths int64
	// SwitchesPerNode is the hardware cost metric: switches / nodes.
	SwitchesPerNode float64
	// PortsPerNode counts total switch ports per processing node.
	PortsPerNode float64
}

// FamilyStats computes the comparison metrics for this FT(m, n).
func (t *Tree) FamilyStats() FamilyStats {
	return FamilyStats{
		Family:          fmt.Sprintf("m-port n-tree FT(%d,%d)", t.m, t.n),
		Nodes:           t.nodes,
		Switches:        t.switches,
		SwitchPorts:     t.m,
		Links:           t.Links(),
		Levels:          t.n,
		Bisection:       t.BisectionLinks(),
		MaxDistPaths:    t.hPow(t.n - 1),
		SwitchesPerNode: float64(t.switches) / float64(t.nodes),
		PortsPerNode:    float64(t.switches*t.m) / float64(t.nodes),
	}
}

// KaryNTreeStats computes, analytically, the same metrics for the k-ary
// n-tree of Petrini and Vanneschi (the paper's reference [10]): k^n
// processing nodes, n stages of k^(n-1) switches of arity 2k.
func KaryNTreeStats(k, n int) (FamilyStats, error) {
	if k < 2 || n < 1 {
		return FamilyStats{}, fmt.Errorf("topology: k-ary n-tree needs k >= 2, n >= 1 (got %d, %d)", k, n)
	}
	pow := func(b, e int) int {
		v := 1
		for i := 0; i < e; i++ {
			v *= b
		}
		return v
	}
	nodes := pow(k, n)
	switches := n * pow(k, n-1)
	// One k^n link bundle below each stage: node attachments plus n-1
	// inter-stage boundaries.
	links := n * nodes
	return FamilyStats{
		Family:          fmt.Sprintf("k-ary n-tree (%d-ary %d-tree)", k, n),
		Nodes:           nodes,
		Switches:        switches,
		SwitchPorts:     2 * k,
		Links:           links,
		Levels:          n,
		Bisection:       nodes / 2,
		MaxDistPaths:    int64(pow(k, n-1)),
		SwitchesPerNode: float64(switches) / float64(nodes),
		PortsPerNode:    float64(switches*2*k) / float64(nodes),
	}, nil
}

// CompareWithKaryNTree contrasts this FT(m, n) with the k-ary n-tree built
// from the same switches (k = m/2, same n). The m-port n-tree connects
// twice the nodes by using all m root ports downward, at the cost of
// (2n-1)/n times the switch count — fewer switches per node whenever n >= 1.
func (t *Tree) CompareWithKaryNTree() (ft, kary FamilyStats, err error) {
	kary, err = KaryNTreeStats(t.h, t.n)
	if err != nil {
		return FamilyStats{}, FamilyStats{}, err
	}
	return t.FamilyStats(), kary, nil
}

// FormatComparison renders family stats side by side.
func FormatComparison(stats ...FamilyStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %9s %6s %7s %10s %12s %9s\n",
		"family", "nodes", "switches", "ports", "links", "bisection", "sw/node", "paths")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-28s %8d %9d %6d %7d %10d %12.3f %9d\n",
			s.Family, s.Nodes, s.Switches, s.SwitchPorts, s.Links, s.Bisection, s.SwitchesPerNode, s.MaxDistPaths)
	}
	return b.String()
}
