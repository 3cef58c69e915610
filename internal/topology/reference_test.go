package topology

import (
	"slices"
	"testing"
)

// refTree is the reference label arithmetic the shift-and-mask decoder must
// reproduce: mixed-radix decoding with one division per digit, exactly as
// the paper writes the labels. It is built from m and n alone and shares no
// code with Tree beyond the ID types.
type refTree struct {
	m, n, h      int
	perLevel     int
	perMidLevel  int
	nodeWeight   []int64 // h^(n-1-i)
	switchWeight []int64 // h^(n-2-i)
}

func newRefTree(m, n int) *refTree {
	h := m / 2
	pow := func(e int) int64 {
		v := int64(1)
		for i := 0; i < e; i++ {
			v *= int64(h)
		}
		return v
	}
	r := &refTree{m: m, n: n, h: h, perLevel: int(pow(n - 1))}
	r.perMidLevel = 2 * r.perLevel
	for i := 0; i < n; i++ {
		r.nodeWeight = append(r.nodeWeight, pow(n-1-i))
	}
	for i := 0; i < n-1; i++ {
		r.switchWeight = append(r.switchWeight, pow(n-2-i))
	}
	return r
}

func (r *refTree) nodeDigit(id NodeID, i int) int {
	if i == 0 {
		return int(int64(id) / r.nodeWeight[0])
	}
	return int(int64(id) / r.nodeWeight[i] % int64(r.h))
}

func (r *refTree) switchDigits(id SwitchID) ([]int, int) {
	d := make([]int, r.n-1)
	idx := int64(id)
	level := 0
	if idx >= int64(r.perLevel) {
		idx -= int64(r.perLevel)
		level = 1 + int(idx/int64(r.perMidLevel))
		idx %= int64(r.perMidLevel)
	}
	for i := range d {
		d[i] = int(idx / r.switchWeight[i])
		idx %= r.switchWeight[i]
	}
	return d, level
}

func (r *refTree) switchFromDigits(d []int, level int) (SwitchID, bool) {
	limit0 := r.h
	if level >= 1 {
		limit0 = r.m
	}
	var idx int64
	for i, v := range d {
		limit := r.h
		if i == 0 {
			limit = limit0
		}
		if v < 0 || v >= limit {
			return 0, false
		}
		idx += int64(v) * r.switchWeight[i]
	}
	if level == 0 {
		return SwitchID(idx), true
	}
	return SwitchID(int64(r.perLevel) + int64(level-1)*int64(r.perMidLevel) + idx), true
}

func (r *refTree) gcpLen(a, b NodeID) int {
	for i := 0; i < r.n; i++ {
		if r.nodeDigit(a, i) != r.nodeDigit(b, i) {
			return i
		}
	}
	return r.n
}

func (r *refTree) rank(id NodeID, alpha int) int64 {
	var v int64
	for i := alpha; i < r.n; i++ {
		v += int64(r.nodeDigit(id, i)) * r.nodeWeight[i]
	}
	return v
}

func (r *refTree) nodeAttachment(id NodeID) (SwitchID, int) {
	if r.n == 1 {
		return 0, int(id)
	}
	prefix := int64(id) / int64(r.h)
	return SwitchID(int64(r.perLevel) + int64(r.n-2)*int64(r.perMidLevel) + prefix), int(int64(id) % int64(r.h))
}

func (r *refTree) switchNeighbor(id SwitchID, port int) PortRef {
	if id < 0 || int(id) >= (2*r.n-1)*r.perLevel || port < 0 || port >= r.m {
		return PortRef{Kind: KindNone}
	}
	if r.n == 1 {
		return PortRef{Kind: KindNode, Node: NodeID(port)}
	}
	d, level := r.switchDigits(id)
	down := r.h
	if level == 0 {
		down = r.m
	}
	if port < down {
		if level == r.n-1 {
			pid := int64(port)
			for i, v := range d {
				pid += int64(v) * r.nodeWeight[i]
			}
			return PortRef{Kind: KindNode, Node: NodeID(pid)}
		}
		old := d[level]
		d[level] = port
		child, ok := r.switchFromDigits(d, level+1)
		if !ok {
			return PortRef{Kind: KindNone}
		}
		return PortRef{Kind: KindSwitch, Switch: child, Port: old + r.h}
	}
	old := d[level-1]
	d[level-1] = port - r.h
	parent, ok := r.switchFromDigits(d, level-1)
	if !ok {
		return PortRef{Kind: KindNone}
	}
	return PortRef{Kind: KindSwitch, Switch: parent, Port: old}
}

// downPortTo is Case 1 of the forwarding rule as the paper states it: dst
// is below sw when sw's leading `level` digits equal dst's, and the down
// port is dst's digit `level`.
func (r *refTree) downPortTo(sw SwitchID, dst NodeID) (int, bool) {
	if r.n == 1 {
		return int(dst), true
	}
	d, level := r.switchDigits(sw)
	for i := 0; i < level; i++ {
		if d[i] != r.nodeDigit(dst, i) {
			return 0, false
		}
	}
	return r.nodeDigit(dst, level), true
}

// differentialTrees spans every shift width the differential test covers:
// logH from 1 to 5 and n from 1 to 6.
func differentialTrees() [][2]int {
	return [][2]int{
		{4, 1}, {4, 2}, {4, 3}, {4, 4}, {4, 5}, {4, 6},
		{8, 2}, {8, 3}, {8, 4},
		{16, 2}, {16, 3},
		{32, 2},
		{64, 2},
	}
}

// TestLabelArithmeticMatchesReference checks the shift-and-mask decoder
// against the division-based reference, exhaustively over every switch,
// port and node of each tree, and checks that following a link back from
// its far end returns the original endpoint.
func TestLabelArithmeticMatchesReference(t *testing.T) {
	for _, mn := range differentialTrees() {
		tr, ref := MustNew(mn[0], mn[1]), newRefTree(mn[0], mn[1])
		d := make([]int, tr.N()-1)
		for s := 0; s < tr.Switches(); s++ {
			sw := SwitchID(s)
			want, wantLevel := ref.switchDigits(sw)
			if level := tr.SwitchDigitsInto(sw, d); level != wantLevel || !slices.Equal(d, want) {
				t.Fatalf("%s switch %d: SwitchDigitsInto = %v level %d, want %v level %d", tr, s, d, level, want, wantLevel)
			}
			if level := tr.SwitchLevel(sw); level != wantLevel {
				t.Fatalf("%s switch %d: SwitchLevel = %d, want %d", tr, s, level, wantLevel)
			}
			for port := -1; port <= tr.M(); port++ {
				got, want := tr.SwitchNeighbor(sw, port), ref.switchNeighbor(sw, port)
				if got != want {
					t.Fatalf("%s switch %d port %d: SwitchNeighbor = %v, want %v", tr, s, port, got, want)
				}
				switch got.Kind {
				case KindSwitch:
					if back := tr.SwitchNeighbor(got.Switch, got.Port); back != (PortRef{Kind: KindSwitch, Switch: sw, Port: port}) {
						t.Fatalf("%s switch %d port %d -> %v -> %v", tr, s, port, got, back)
					}
				case KindNode:
					if bs, bp := tr.NodeAttachment(got.Node); bs != sw || bp != port {
						t.Fatalf("%s switch %d port %d -> %v attaches to %d port %d", tr, s, port, got, bs, bp)
					}
				}
			}
			for p := 0; p < tr.Nodes(); p++ {
				dst := NodeID(p)
				port, ok := tr.DownPortTo(sw, dst)
				wantPort, wantOK := ref.downPortTo(sw, dst)
				if ok != wantOK || (ok && port != wantPort) {
					t.Fatalf("%s switch %d node %d: DownPortTo = %d,%v, want %d,%v", tr, s, p, port, ok, wantPort, wantOK)
				}
			}
		}
		for p := 0; p < tr.Nodes(); p++ {
			id := NodeID(p)
			for i := 0; i < tr.N(); i++ {
				if got, want := tr.NodeDigit(id, i), ref.nodeDigit(id, i); got != want {
					t.Fatalf("%s node %d digit %d: NodeDigit = %d, want %d", tr, p, i, got, want)
				}
			}
			for alpha := 0; alpha <= tr.N(); alpha++ {
				if got, want := tr.Rank(id, alpha), ref.rank(id, alpha); got != want {
					t.Fatalf("%s node %d: Rank(%d) = %d, want %d", tr, p, alpha, got, want)
				}
			}
			sw, port := tr.NodeAttachment(id)
			if wsw, wport := ref.nodeAttachment(id); sw != wsw || port != wport {
				t.Fatalf("%s node %d: NodeAttachment = %d:%d, want %d:%d", tr, p, sw, port, wsw, wport)
			}
			for q := 0; q < tr.Nodes(); q++ {
				if got, want := tr.GCPLen(id, NodeID(q)), ref.gcpLen(id, NodeID(q)); got != want {
					t.Fatalf("%s nodes %d,%d: GCPLen = %d, want %d", tr, p, q, got, want)
				}
			}
		}
	}
}

// TestSwitchNeighborRejectsBadIDs: a switch ID outside [0, Switches()) has
// no neighbor on any port; it must not be decoded into a label.
func TestSwitchNeighborRejectsBadIDs(t *testing.T) {
	for _, mn := range [][2]int{{4, 1}, {4, 2}, {8, 3}} {
		tr := MustNew(mn[0], mn[1])
		for _, sw := range []SwitchID{-1, SwitchID(tr.Switches()), 9999, -9999} {
			for port := -1; port <= tr.M(); port++ {
				if ref := tr.SwitchNeighbor(sw, port); ref.Kind != KindNone {
					t.Fatalf("%s switch %d port %d: %v, want none", tr, sw, port, ref)
				}
			}
			if _, ok := tr.DownPortTo(sw, 0); ok {
				t.Fatalf("%s switch %d: DownPortTo reports node 0 below an invalid switch", tr, sw)
			}
		}
	}
}
