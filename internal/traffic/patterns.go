package traffic

import (
	"fmt"
	"math/rand"
)

// MultiHotspot generalizes Centric to several hotspots: with probability
// Fraction the destination is drawn uniformly from the hotspot set,
// otherwise uniformly from all other nodes. Spreading the concentration
// over k destinations multiplies the aggregate sink capacity by k, which is
// how real systems dilute the single-sink bound the centric pattern hits.
type MultiHotspot struct {
	Nodes    int
	Hotspots []int
	Fraction float64
}

// Name implements Pattern.
func (m MultiHotspot) Name() string {
	return fmt.Sprintf("hotspot%dx%.0f%%", len(m.Hotspots), m.Fraction*100)
}

// Validate reports a hotspot outside a fabric of the given node count.
func (m MultiHotspot) Validate(nodes int) error {
	for _, h := range m.Hotspots {
		if err := checkNode("hotspot", h, nodes); err != nil {
			return err
		}
	}
	return nil
}

// Dest implements Pattern. A source that is itself a hotspot draws among the
// remaining hotspots, so every source realizes the configured Fraction toward
// the hotspot set (src being the only hotspot is the sole exception).
func (m MultiHotspot) Dest(src int, rng *rand.Rand) int {
	if len(m.Hotspots) > 0 && rng.Float64() < m.Fraction {
		if d, ok := m.drawHotspot(src, rng); ok {
			return d
		}
	}
	for {
		d := rng.Intn(m.Nodes - 1)
		if d >= src {
			d++
		}
		if d != src {
			return d
		}
	}
}

// drawHotspot draws uniformly over the hotspot set excluding src; ok=false
// when src is the only hotspot.
func (m MultiHotspot) drawHotspot(src int, rng *rand.Rand) (int, bool) {
	self := -1
	for i, h := range m.Hotspots {
		if h == src {
			self = i
			break
		}
	}
	if self < 0 {
		return m.Hotspots[rng.Intn(len(m.Hotspots))], true
	}
	if len(m.Hotspots) == 1 {
		return 0, false
	}
	i := rng.Intn(len(m.Hotspots) - 1)
	if i >= self {
		i++
	}
	return m.Hotspots[i], true
}

// Local draws destinations with a bias toward nearby nodes: with probability
// Locality the destination shares the source's leaf switch (PID block of
// size m/2); otherwise it is uniform. Locality stresses the short intra-leaf
// paths the fat-tree serves without any ascent.
type Local struct {
	Nodes    int
	LeafSize int // nodes per leaf switch (m/2)
	Locality float64
}

// Name implements Pattern.
func (l Local) Name() string { return fmt.Sprintf("local%.0f%%", l.Locality*100) }

// Dest implements Pattern. The biased draw covers only the leaf block's
// valid nodes, so a partial last leaf (Nodes not a multiple of LeafSize)
// still realizes the configured Locality; a source alone on its leaf falls
// back to uniform.
func (l Local) Dest(src int, rng *rand.Rand) int {
	if l.LeafSize > 1 && rng.Float64() < l.Locality {
		base := src - src%l.LeafSize
		end := base + l.LeafSize
		if end > l.Nodes {
			end = l.Nodes
		}
		if peers := end - base - 1; peers > 0 {
			d := base + rng.Intn(peers)
			if d >= src {
				d++
			}
			return d
		}
	}
	for {
		d := rng.Intn(l.Nodes - 1)
		if d >= src {
			d++
		}
		if d != src {
			return d
		}
	}
}

// Tornado sends every packet halfway around the PID space:
// dst = (src + N/2) mod N — the classic adversarial permutation for
// direct networks, benign on fat-trees but useful as a regression workload.
func Tornado(nodes int) PermutationPattern {
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = (i + nodes/2) % nodes
	}
	return PermutationPattern{Label: "tornado", Perm: perm}
}
