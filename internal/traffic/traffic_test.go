package traffic

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformNeverSelf(t *testing.T) {
	u := Uniform{Nodes: 16}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 16)
	for i := 0; i < 20000; i++ {
		src := i % 16
		d := u.Dest(src, rng)
		if d == src || d < 0 || d >= 16 {
			t.Fatalf("Dest(%d) = %d", src, d)
		}
		counts[d]++
	}
	// Roughly uniform: each node receives ~20000/16 = 1250.
	for n, c := range counts {
		if c < 1000 || c > 1500 {
			t.Errorf("node %d received %d, expected ~1250", n, c)
		}
	}
}

func TestCentricFraction(t *testing.T) {
	c := Centric{Nodes: 32, Hotspot: 5, Fraction: 0.5}
	rng := rand.New(rand.NewSource(2))
	hot := 0
	total := 60000
	for i := 0; i < total; i++ {
		src := i % 32
		if src == c.Hotspot {
			continue
		}
		if d := c.Dest(src, rng); d == c.Hotspot {
			hot++
		}
	}
	sent := total - total/32
	frac := float64(hot) / float64(sent)
	// 50% to the hotspot plus the uniform residue (0.5 * 1/31).
	want := 0.5 + 0.5/31.0
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("hotspot fraction = %.3f, want ~%.3f", frac, want)
	}
}

func TestCentricHotspotSource(t *testing.T) {
	c := Centric{Nodes: 8, Hotspot: 3, Fraction: 1.0}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if d := c.Dest(3, rng); d == 3 {
			t.Fatal("hotspot sent to itself")
		}
	}
	// Non-hotspot sources always hit the hotspot at Fraction 1.
	for i := 0; i < 100; i++ {
		if d := c.Dest(0, rng); d != 3 {
			t.Fatalf("Fraction=1 sent to %d", d)
		}
	}
}

func TestPermutations(t *testing.T) {
	for _, nodes := range []int{8, 16, 32} {
		bc := BitComplement(nodes)
		for i := 0; i < nodes; i++ {
			if bc.Perm[i] != nodes-1-i {
				t.Fatalf("bitcomplement[%d] = %d", i, bc.Perm[i])
			}
		}
		br := BitReversal(nodes)
		seen := map[int]bool{}
		for i := 0; i < nodes; i++ {
			d := br.Perm[i]
			if d < 0 || d >= nodes {
				t.Fatalf("bitreversal[%d] = %d", i, d)
			}
			seen[d] = true
		}
		if len(seen) != nodes { // power-of-two sizes: a true permutation
			t.Fatalf("bitreversal over %d nodes hits only %d destinations", nodes, len(seen))
		}
		sh := Shift(nodes, 1)
		if sh.Perm[nodes-1] != 0 || sh.Perm[0] != 1 {
			t.Fatalf("shift wrong: %v", sh.Perm[:2])
		}
	}
}

func TestPermutationPatternFixedPointFallback(t *testing.T) {
	p := PermutationPattern{Label: "id", Perm: []int{0, 1, 2, 3}}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		if d := p.Dest(2, rng); d == 2 {
			t.Fatal("fixed point returned itself")
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "centric", "bitcomplement", "bitreversal", "shift"} {
		p, err := ByName(name, 16, 0)
		if err != nil || p == nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Errorf("pattern %q has empty name", name)
		}
	}
	if _, err := ByName("nope", 16, 0); err == nil {
		t.Error("ByName(nope): expected error")
	}
	if _, err := ByName("uniform", 1, 0); err == nil {
		t.Error("ByName with 1 node: expected error")
	}
}

// Property: every pattern always returns a valid non-self destination.
func TestQuickValidDestinations(t *testing.T) {
	nodes := 64
	pats := []Pattern{
		Uniform{Nodes: nodes},
		Centric{Nodes: nodes, Hotspot: 7, Fraction: 0.5},
		BitComplement(nodes),
		BitReversal(nodes),
		Shift(nodes, 3),
	}
	rng := rand.New(rand.NewSource(9))
	for _, p := range pats {
		f := func(rawSrc uint16) bool {
			src := int(rawSrc) % nodes
			d := p.Dest(src, rng)
			return d >= 0 && d < nodes && d != src
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(10))}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// TestByNameRejectsOutOfRangeHotspot: a centric hotspot outside [0, nodes)
// is a *NodeRangeError at construction, not an index panic in the first
// packet's delivery.
func TestByNameRejectsOutOfRangeHotspot(t *testing.T) {
	for _, h := range []int{9999, -1, 16} {
		_, err := ByName("centric", 16, h)
		var re *NodeRangeError
		if !errors.As(err, &re) || re.ID != h || re.Nodes != 16 {
			t.Errorf("hotspot %d: got %v, want a *NodeRangeError", h, err)
		}
	}
	if _, err := ByName("centric", 16, 15); err != nil {
		t.Errorf("hotspot 15 of 16: %v", err)
	}
}
