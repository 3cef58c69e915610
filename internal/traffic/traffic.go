// Package traffic provides the destination-selection patterns the paper's
// evaluation uses — uniform random and p%-centric (hotspot) — plus the
// permutation patterns commonly used to stress fat-tree routing, and
// deterministic per-source random streams so simulations are reproducible.
package traffic

import (
	"fmt"
	"math/rand"
)

// Pattern selects, for each generated packet, its destination node.
// Implementations must be safe for concurrent use only if every source uses
// its own *rand.Rand, which is how the simulator drives them.
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Dest returns the destination for a packet generated at src, in
	// [0, nodes) and != src. rng is the source's private random stream.
	Dest(src int, rng *rand.Rand) int
}

// Uniform is the paper's uniform traffic pattern: every packet goes to a
// destination drawn uniformly from all other nodes.
type Uniform struct {
	Nodes int
}

// Name implements Pattern.
func (u Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u Uniform) Dest(src int, rng *rand.Rand) int {
	d := rng.Intn(u.Nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// NodeRangeError reports a pattern parameter naming a node outside the
// fabric's [0, Nodes) range.
type NodeRangeError struct {
	Param string // the offending parameter, e.g. "hotspot"
	ID    int
	Nodes int
}

func (e *NodeRangeError) Error() string {
	return fmt.Sprintf("traffic: %s %d out of range [0, %d)", e.Param, e.ID, e.Nodes)
}

// checkNode returns a *NodeRangeError unless id is in [0, nodes).
func checkNode(param string, id, nodes int) error {
	if id < 0 || id >= nodes {
		return &NodeRangeError{Param: param, ID: id, Nodes: nodes}
	}
	return nil
}

// Centric is the paper's hotspot pattern: with probability Fraction the
// destination is the fixed Hotspot node; otherwise it is uniform over the
// remaining nodes. The paper simulates Fraction = 0.5 ("50 out of 100
// packets are sent from all source processing nodes to this particular
// processing node"). A source equal to the hotspot falls back to uniform.
type Centric struct {
	Nodes    int
	Hotspot  int
	Fraction float64
}

// Name implements Pattern.
func (c Centric) Name() string {
	return fmt.Sprintf("centric%.0f%%", c.Fraction*100)
}

// Validate reports a hotspot outside a fabric of the given node count.
func (c Centric) Validate(nodes int) error {
	return checkNode("hotspot", c.Hotspot, nodes)
}

// Dest implements Pattern.
func (c Centric) Dest(src int, rng *rand.Rand) int {
	if src != c.Hotspot && rng.Float64() < c.Fraction {
		return c.Hotspot
	}
	for {
		d := rng.Intn(c.Nodes - 1)
		if d >= src {
			d++
		}
		if d != src {
			return d
		}
	}
}

// PermutationPattern sends every packet of a source to the fixed destination
// perm[src]. Sources whose image is themselves send uniformly instead (so
// the open-loop generator never stalls on a fixed point).
type PermutationPattern struct {
	Label string
	Perm  []int
}

// Name implements Pattern.
func (p PermutationPattern) Name() string { return p.Label }

// Dest implements Pattern.
func (p PermutationPattern) Dest(src int, rng *rand.Rand) int {
	d := p.Perm[src]
	if d == src {
		d = rng.Intn(len(p.Perm) - 1)
		if d >= src {
			d++
		}
	}
	return d
}

// BitComplement returns the PID-complement permutation dst = N-1-src, which
// makes every pair maximally distant (gcp length 0).
func BitComplement(nodes int) PermutationPattern {
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = nodes - 1 - i
	}
	return PermutationPattern{Label: "bitcomplement", Perm: perm}
}

// BitReversal returns the bit-reversal permutation over PIDs, padded to the
// next power of two and reduced modulo the node count; a classic adversary
// for tree ascents.
func BitReversal(nodes int) PermutationPattern {
	bits := 0
	for 1<<bits < nodes {
		bits++
	}
	perm := make([]int, nodes)
	for i := range perm {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		perm[i] = r % nodes
	}
	return PermutationPattern{Label: "bitreversal", Perm: perm}
}

// Shift returns the cyclic shift permutation dst = (src + k) mod N.
func Shift(nodes, k int) PermutationPattern {
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = ((i+k)%nodes + nodes) % nodes
	}
	return PermutationPattern{Label: fmt.Sprintf("shift%+d", k), Perm: perm}
}

// ByName builds one of the named patterns: "uniform", "centric" (50% to node
// hotspot), "bitcomplement", "bitreversal", "shift". A centric hotspot
// outside [0, nodes) is a *NodeRangeError.
func ByName(name string, nodes, hotspot int) (Pattern, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("traffic: need at least 2 nodes, got %d", nodes)
	}
	switch name {
	case "uniform":
		return Uniform{Nodes: nodes}, nil
	case "centric":
		c := Centric{Nodes: nodes, Hotspot: hotspot, Fraction: 0.5}
		if err := c.Validate(nodes); err != nil {
			return nil, err
		}
		return c, nil
	case "bitcomplement":
		return BitComplement(nodes), nil
	case "bitreversal":
		return BitReversal(nodes), nil
	case "shift":
		return Shift(nodes, 1), nil
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}
