// Package topology implements the m-port n-tree family of fat-trees, FT(m, n),
// proposed by Lin, Chung and Huang ("A Multiple LID Routing Scheme for
// Fat-Tree-Based InfiniBand Networks", IPDPS 2004) as the substrate for
// fat-tree-based InfiniBand networks.
//
// An FT(m, n) has height n+1 and is built entirely from fixed-arity m-port
// switches. Writing h = m/2:
//
//   - there are 2*h^n processing nodes, labelled P(p0 p1 ... p[n-1]) with
//     p0 in [0, m) and pi in [0, h) for i >= 1;
//   - there are (2n-1)*h^(n-1) switches, labelled SW<w0 ... w[n-2], l> with
//     level l in [0, n); level 0 (the roots) has h^(n-1) switches whose
//     digits are all in [0, h); every other level has 2*h^(n-1) switches
//     with w0 in [0, m) and the remaining digits in [0, h).
//
// Links follow the paper's connection rule: switch SW<w, l> port k connects
// to switch SW<w', l+1> port k' if and only if w and w' agree on every digit
// except position l, k = w'_l, and k' = w_l + h. A leaf switch SW<w, n-1>
// connects its port k to processing node P(p) when w = p0..p[n-2] and
// k = p[n-1]. Ports in this package are "abstract" ports numbered 0..m-1;
// the InfiniBand instantiation maps abstract port k to physical port k+1
// because physical port 0 of an InfiniBand switch is the management port.
//
// The package represents nodes and switches by dense integer identifiers and
// computes all adjacency arithmetically, so a multi-thousand-port fabric
// costs no memory beyond its parameters.
package topology

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a processing node. NodeIDs are dense in [0, Tree.Nodes())
// and equal the node's PID (rank in gcpg(épsilon, 0)) as defined by the paper.
type NodeID int32

// SwitchID identifies a communication switch. SwitchIDs are dense in
// [0, Tree.Switches()), ordered by level and then by label.
type SwitchID int32

// Kind discriminates the two endpoint types of a link.
type Kind uint8

const (
	// KindNode marks a processing-node endpoint.
	KindNode Kind = iota
	// KindSwitch marks a switch endpoint.
	KindSwitch
	// KindNone marks the absence of an endpoint (an unwired port).
	KindNone
)

// String returns a short human-readable name for the endpoint kind.
func (k Kind) String() string {
	switch k {
	case KindNode:
		return "node"
	case KindSwitch:
		return "switch"
	default:
		return "none"
	}
}

// PortRef names one endpoint of a link: an entity and one of its ports.
// Processing nodes have a single port (0); switches have m abstract ports.
type PortRef struct {
	Kind Kind
	// Node is valid when Kind == KindNode.
	Node NodeID
	// Switch is valid when Kind == KindSwitch.
	Switch SwitchID
	// Port is the abstract port number on the endpoint.
	Port int
}

// String renders the endpoint as, e.g., "SW<102,1>:3" or "P(010)".
func (p PortRef) String() string {
	switch p.Kind {
	case KindNode:
		return fmt.Sprintf("node %d port %d", p.Node, p.Port)
	case KindSwitch:
		return fmt.Sprintf("switch %d port %d", p.Switch, p.Port)
	default:
		return "none"
	}
}

// Tree is an immutable description of an FT(m, n) fat-tree.
//
// Labels are decoded with shifts and masks, never divisions: h = m/2 is a
// power of two, 2^logH, so every label digit but the top one is a logH-bit
// field of the dense index. Node digit i sits at bit logH*(n-1-i) of the
// NodeID; switch digit i sits at bit logH*(n-2-i) of the switch's in-level
// index. The top digit (i == 0) ranges over [0, m) = [0, 2h), one bit wider
// than the others, and is read unmasked as everything above its offset.
type Tree struct {
	m    int  // switch arity (ports per switch); power of two, >= 4
	n    int  // tree "dimension"; height is n+1
	h    int  // m/2: down-degree of non-root switches
	logH uint // log2(h): the width of every label digit below the top one

	nodes       int  // 2*h^n
	switches    int  // (2n-1)*h^(n-1)
	perLevel    int  // h^(n-1): switches in level 0
	perMidLevel int  // 2*h^(n-1): switches in each level >= 1
	levelShift  uint // log2(perMidLevel): the in-level index width at levels >= 1
}

// New constructs the FT(m, n) fat-tree description.
//
// m must be a power of two with m >= 4 (the paper requires a power of two so
// that the LMC addressing of the MLID scheme partitions the LID space, and
// the label arithmetic decodes digits as bit fields), and n must be >= 1.
// FT(m, 1) degenerates to a single m-port crossbar switch connecting m
// nodes.
func New(m, n int) (*Tree, error) {
	if m < 4 || m&(m-1) != 0 {
		return nil, fmt.Errorf("topology: m must be a power of two >= 4, got %d", m)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: n must be >= 1, got %d", n)
	}
	h := m / 2
	logH := uint(bits.Len(uint(h)) - 1)
	// Guard against overflow of the dense ID spaces.
	if uint(n)*logH > 28 {
		return nil, fmt.Errorf("topology: FT(%d,%d) is too large (more than 2^29 nodes)", m, n)
	}
	t := &Tree{m: m, n: n, h: h, logH: logH}
	t.perLevel = int(t.hPow(n - 1))
	t.perMidLevel = 2 * t.perLevel
	t.levelShift = 1 + uint(n-1)*logH
	t.nodes = 2 * int(t.hPow(n))
	t.switches = (2*n - 1) * t.perLevel
	return t, nil
}

// hPow returns h^i.
func (t *Tree) hPow(i int) int64 { return 1 << (uint(i) * t.logH) }

// MustNew is New, panicking on invalid parameters. It is intended for tests
// and examples with constant arguments.
func MustNew(m, n int) *Tree {
	t, err := New(m, n)
	if err != nil {
		panic(err)
	}
	return t
}

// M returns the switch arity (number of ports per switch).
func (t *Tree) M() int { return t.m }

// N returns the tree dimension n; the tree height is n+1.
func (t *Tree) N() int { return t.n }

// H returns m/2, the down-degree of non-root switches.
func (t *Tree) H() int { return t.h }

// Nodes returns the number of processing nodes, 2*(m/2)^n.
func (t *Tree) Nodes() int { return t.nodes }

// Switches returns the number of switches, (2n-1)*(m/2)^(n-1).
func (t *Tree) Switches() int { return t.switches }

// Levels returns the number of switch levels, n. Level 0 holds the roots and
// level n-1 the leaf switches that attach processing nodes.
func (t *Tree) Levels() int { return t.n }

// SwitchesInLevel returns the number of switches in the given level:
// (m/2)^(n-1) for level 0 and 2*(m/2)^(n-1) otherwise.
func (t *Tree) SwitchesInLevel(level int) int {
	if level == 0 {
		return t.perLevel
	}
	return t.perMidLevel
}

// Links returns the total number of bidirectional links, counting both
// switch-switch and switch-node links.
func (t *Tree) Links() int {
	// Every switch level below the roots contributes one up-link per
	// (switch, up-port); equivalently, each non-root switch has h up-links.
	interSwitch := (t.n - 1) * t.perMidLevel * t.h
	return interSwitch + t.nodes
}

// String implements fmt.Stringer.
func (t *Tree) String() string {
	return fmt.Sprintf("FT(%d,%d): %d nodes, %d switches", t.m, t.n, t.nodes, t.switches)
}

// ValidNode reports whether id names a processing node of the tree.
func (t *Tree) ValidNode(id NodeID) bool { return id >= 0 && int(id) < t.nodes }

// ValidSwitch reports whether id names a switch of the tree.
func (t *Tree) ValidSwitch(id SwitchID) bool { return id >= 0 && int(id) < t.switches }

// NodeDigits returns the label digits p0..p[n-1] of a node. The NodeID is the
// PID, i.e. the mixed-radix value of the digits with weights (m/2)^(n-1-i).
func (t *Tree) NodeDigits(id NodeID) []int {
	d := make([]int, t.n)
	for i := range d {
		d[i] = t.NodeDigit(id, i)
	}
	return d
}

// NodeDigit returns digit i of the node label without allocating.
func (t *Tree) NodeDigit(id NodeID, i int) int {
	v := int(id) >> (uint(t.n-1-i) * t.logH)
	if i == 0 {
		return v
	}
	return v & (t.h - 1)
}

// NodeFromDigits returns the NodeID with the given label digits.
// It returns an error if a digit is out of range.
func (t *Tree) NodeFromDigits(d []int) (NodeID, error) {
	if len(d) != t.n {
		return 0, fmt.Errorf("topology: node label needs %d digits, got %d", t.n, len(d))
	}
	if d[0] < 0 || d[0] >= t.m {
		return 0, fmt.Errorf("topology: node digit 0 out of range [0,%d): %d", t.m, d[0])
	}
	v := d[0]
	for i := 1; i < t.n; i++ {
		if d[i] < 0 || d[i] >= t.h {
			return 0, fmt.Errorf("topology: node digit %d out of range [0,%d): %d", i, t.h, d[i])
		}
		v = v<<t.logH | d[i]
	}
	return NodeID(v), nil
}

// NodeLabel renders the node label as the paper writes it, e.g. "P(010)".
// Digits of two or more decimal places are separated by dots.
func (t *Tree) NodeLabel(id NodeID) string {
	return "P(" + digitString(t.NodeDigits(id)) + ")"
}

// levelIndex splits a valid switch ID into its level and in-level index,
// the label digits w0..w[n-2] read as one mixed-radix number.
func (t *Tree) levelIndex(id SwitchID) (level, idx int) {
	v := int(id)
	if v < t.perLevel {
		return 0, v
	}
	v -= t.perLevel
	return 1 + v>>t.levelShift, v & (t.perMidLevel - 1)
}

// switchAt is levelIndex's inverse.
func (t *Tree) switchAt(level, idx int) SwitchID {
	if level == 0 {
		return SwitchID(idx)
	}
	return SwitchID(t.perLevel + (level-1)<<t.levelShift + idx)
}

// switchShift returns the bit offset of switch digit i in an in-level index.
func (t *Tree) switchShift(i int) uint { return uint(t.n-2-i) * t.logH }

// SwitchLevel returns the level of the switch, in [0, n).
func (t *Tree) SwitchLevel(id SwitchID) int {
	level, _ := t.levelIndex(id)
	return level
}

// SwitchDigits returns the label digits w0..w[n-2] and the level of a switch.
// For n == 1 the digit slice is empty.
func (t *Tree) SwitchDigits(id SwitchID) (digits []int, level int) {
	digits = make([]int, t.n-1)
	level = t.SwitchDigitsInto(id, digits)
	return digits, level
}

// SwitchDigitsInto decodes the label digits into d, which must have length
// n-1, and returns the level. It is the allocation-free form of SwitchDigits.
func (t *Tree) SwitchDigitsInto(id SwitchID, d []int) (level int) {
	level, idx := t.levelIndex(id)
	for i := range d[:t.n-1] {
		d[i] = idx >> t.switchShift(i)
		if i > 0 {
			d[i] &= t.h - 1
		}
	}
	return level
}

// SwitchFromDigits returns the SwitchID with the given label digits and level.
func (t *Tree) SwitchFromDigits(d []int, level int) (SwitchID, error) {
	if len(d) != t.n-1 {
		return 0, fmt.Errorf("topology: switch label needs %d digits, got %d", t.n-1, len(d))
	}
	if level < 0 || level >= t.n {
		return 0, fmt.Errorf("topology: switch level out of range [0,%d): %d", t.n, level)
	}
	limit0 := t.h
	if level >= 1 {
		limit0 = t.m
	}
	idx := 0
	for i := 0; i < t.n-1; i++ {
		limit := t.h
		if i == 0 {
			limit = limit0
		}
		if d[i] < 0 || d[i] >= limit {
			return 0, fmt.Errorf("topology: switch digit %d out of range [0,%d): %d", i, limit, d[i])
		}
		idx = idx<<t.logH | d[i]
	}
	return t.switchAt(level, idx), nil
}

// SwitchLabel renders the switch label as the paper writes it, e.g. "SW<10,1>".
func (t *Tree) SwitchLabel(id SwitchID) string {
	d, l := t.SwitchDigits(id)
	return fmt.Sprintf("SW<%s,%d>", digitString(d), l)
}

func digitString(d []int) string {
	wide := false
	for _, v := range d {
		if v > 9 {
			wide = true
			break
		}
	}
	s := ""
	for i, v := range d {
		if wide && i > 0 {
			s += "."
		}
		s += fmt.Sprintf("%d", v)
	}
	return s
}

// IsLeaf reports whether the switch is a leaf switch (level n-1), i.e. has
// processing nodes attached.
func (t *Tree) IsLeaf(id SwitchID) bool { return t.SwitchLevel(id) == t.n-1 }

// IsRoot reports whether the switch is a root switch (level 0).
func (t *Tree) IsRoot(id SwitchID) bool { return t.SwitchLevel(id) == 0 }

// DownPorts returns the number of downward abstract ports of the switch:
// m for a root switch and m/2 otherwise. Downward ports are 0..DownPorts-1;
// the remaining ports (if any) are upward.
func (t *Tree) DownPorts(id SwitchID) int {
	if t.SwitchLevel(id) == 0 {
		return t.m
	}
	return t.h
}

// NodeAttachment returns the leaf switch and abstract port to which the node
// attaches: SW<p0..p[n-2], n-1> port p[n-1].
func (t *Tree) NodeAttachment(id NodeID) (SwitchID, int) {
	if t.n == 1 {
		// The single digit p0 in [0, m) is the port on the sole switch.
		return 0, int(id)
	}
	// The final node digit is the attachment port, and the leading n-1 node
	// digits are exactly the leaf switch's in-level index.
	return t.switchAt(t.n-1, int(id)>>t.logH), int(id) & (t.h - 1)
}

// DownPortTo evaluates Case 1 of the paper's forwarding rule: node dst lies
// below switch SW<w, l> when w0..w[l-1] equal dst's digits p0..p[l-1], and
// then the abstract down port toward it is p_l. Both prefixes are shifted
// indices, so the test is one comparison. Every node lies below a root. It
// reports false for an invalid switch or node.
func (t *Tree) DownPortTo(sw SwitchID, dst NodeID) (port int, ok bool) {
	if !t.ValidSwitch(sw) || !t.ValidNode(dst) {
		return 0, false
	}
	if t.n == 1 {
		return int(dst), true // single-switch fabric: every node is downward
	}
	level, idx := t.levelIndex(sw)
	// s is the offset of node digit l, and of the end of switch digit l-1.
	s := uint(t.n-1-level) * t.logH
	if level == 0 {
		return int(dst) >> s, true
	}
	if idx>>s != int(dst)>>(s+t.logH) {
		return 0, false
	}
	return int(dst) >> s & (t.h - 1), true
}

// SwitchNeighbor returns the entity wired to the given abstract port of the
// switch. Ports carry:
//
//   - leaf switches (level n-1): ports 0..h-1 attach nodes; for n == 1 the
//     single root/leaf switch attaches all m nodes on ports 0..m-1;
//   - root switches (level 0, n >= 2): ports 0..m-1 go down to level 1;
//   - other switches: ports 0..h-1 go down to level+1, ports h..m-1 go up to
//     level-1.
//
// It returns PortRef{Kind: KindNone} for an invalid switch or port.
func (t *Tree) SwitchNeighbor(id SwitchID, port int) PortRef {
	if !t.ValidSwitch(id) || port < 0 || port >= t.m {
		return PortRef{Kind: KindNone}
	}
	if t.n == 1 {
		// Single switch; every port holds a node whose PID is the port.
		return PortRef{Kind: KindNode, Node: NodeID(port), Port: 0}
	}
	level, idx := t.levelIndex(id)
	if level > 0 && port >= t.h {
		// Upward: port h..m-1 selects the parent's digit at position
		// level-1; our old digit there is the parent's down port.
		idx, old := t.swapDigit(idx, level-1, port-t.h)
		return PortRef{Kind: KindSwitch, Switch: t.switchAt(level-1, idx), Port: old}
	}
	if level == t.n-1 {
		// Leaf: port k attaches node P(w0..w[n-2] k).
		return PortRef{Kind: KindNode, Node: NodeID(idx<<t.logH | port), Port: 0}
	}
	// Downward: the child at level+1 agrees on all digits except position
	// `level`, where its digit equals this port; the child's up-port is our
	// digit at position `level` plus h.
	idx, old := t.swapDigit(idx, level, port)
	return PortRef{Kind: KindSwitch, Switch: t.switchAt(level+1, idx), Port: old + t.h}
}

// swapDigit replaces switch digit i of an in-level index with v and returns
// the new index and the old digit. The top digit's field is one bit wider,
// matching its range [0, m).
func (t *Tree) swapDigit(idx, i, v int) (int, int) {
	s, mask := t.switchShift(i), t.h-1
	if i == 0 {
		mask = t.m - 1
	}
	return idx&^(mask<<s) | v<<s, idx >> s & mask
}
