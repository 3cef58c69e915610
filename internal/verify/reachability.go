package verify

import (
	"fmt"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// entryKey dedups per-entry findings: a broken entry at switch S for LID L
// is one finding, not one per source leaf that reaches it.
type entryKey struct {
	sw  int32
	lid int
}

// leafReach is one source leaf's share of the reachability sweep.
type leafReach struct {
	// reached and deadBlocked count the current destination's LIDs that
	// this leaf delivers, and those that die at a dead link.
	reached, deadBlocked int
	// found holds the leaf's findings in (destination, LID) order, at most
	// a cap's worth: any later one could only be suppressed, and counts in
	// suppressed instead.
	found      []Finding
	suppressed int
}

// room reports whether the leaf may store one more finding under the
// per-analyzer cap, counting the finding as suppressed when it may not.
func (l *leafReach) room(capacity int) bool {
	if capacity > 0 && len(l.found) >= capacity {
		l.suppressed++
		return false
	}
	return true
}

// checkReachability walks every (leaf switch, assigned LID) route through
// the live tables — every packet enters the fabric at a leaf, so these walks
// cover every forwardable (source, DLID) pair — and hands each walk to the
// lanes' dependency graphs. Loops, dead ends, misdeliveries and fall-offs
// are errors with the walked path as witness; entries pointing at recorded
// dead links are warnings (the drop is the documented fate of an
// unrepaireable entry); a destination whose every LID is dead from some
// leaf gets one aggregated unreachability warning.
//
// The sweep runs destination by destination, LID by LID, and walks each
// LID from every leaf in turn, so one LID's column of table entries stays
// in cache across all the leaves. Findings are reported in (leaf,
// destination, LID) order all the same: each leaf collects its own, in
// (destination, LID) order with the aggregate warning after the
// destination's LIDs, and the leaves' lists are concatenated before the
// per-analyzer cap applies. A broken entry found from several leaves keeps
// the lowest leaf's walk as witness, since each LID's leaves are walked in
// ascending order.
func (f *fabric) checkReachability(rep *Report, g *lanes) {
	t := f.t
	// Leaves are the last level, the highest switch IDs.
	firstLeaf := t.Switches() - t.SwitchesInLevel(t.N()-1)
	leaves := make([]leafReach, t.Switches()-firstLeaf)
	seen := make(map[entryKey]bool)
	var w walk
	for p := 0; p < t.Nodes(); p++ {
		dst := topology.NodeID(p)
		r := f.in.Endports[p]
		for i := range leaves {
			leaves[i].reached, leaves[i].deadBlocked = 0, 0
		}
		routes := 0
		for off := 0; off < r.Count(); off++ {
			lid := int(r.Base) + off
			if lid <= 0 || lid >= f.space || f.owner[lid] != int32(p) {
				continue // addressing already flagged the inconsistency
			}
			routes++
			for i := range leaves {
				l := &leaves[i]
				f.follow(&w, topology.SwitchID(firstLeaf+i), ib.LID(lid))
				g.add(ib.LID(lid), &w)
				if w.delivered(dst) {
					l.reached++
					continue
				}
				if w.stop == stopDeadLink {
					l.deadBlocked++
				}
				if k := (entryKey{int32(w.at), lid}); !seen[k] {
					seen[k] = true
					if l.room(f.cap) {
						l.found = append(l.found, f.routeFinding(&w, lid, dst))
					}
				}
			}
		}
		rep.Stats.RoutesChecked += routes * len(leaves)
		// Aggregate unreachability: only when every failure is
		// fault-explained (defects already carry their own errors).
		for i := range leaves {
			l := &leaves[i]
			if routes > 0 && l.reached == 0 && l.deadBlocked == routes && l.room(f.cap) {
				l.found = append(l.found, Finding{
					Analyzer: "reachability",
					Severity: Warning,
					Location: t.SwitchLabel(topology.SwitchID(firstLeaf + i)),
					Message: fmt.Sprintf("destination %s unreachable: all %d of its LIDs hit dead links from this leaf",
						t.NodeLabel(dst), routes),
					Witness: nil,
				})
			}
		}
	}
	for i := range leaves {
		for _, fd := range leaves[i].found {
			rep.add(f.cap, fd)
		}
		rep.Stats.Suppressed += leaves[i].suppressed
	}
}

// routeFinding explains why the walk of lid's route did not reach its owner
// dst, with the walked channels (or, for a loop, the cycle) as witness.
func (f *fabric) routeFinding(w *walk, lid int, dst topology.NodeID) Finding {
	t := f.t
	sev, loc, path := Error, t.SwitchLabel(w.at), w.chans
	var msg string
	switch w.stop {
	case stopLoop:
		path = w.chans[w.loopAt:]
		msg = fmt.Sprintf("forwarding loop for DLID %d (%d switches)", lid, len(path))
	case stopTooLong:
		msg = fmt.Sprintf("route for DLID %d exceeds %d switches without delivery", lid, f.maxSwitches)
	case stopNoEntry:
		msg = fmt.Sprintf("dead end: no forwarding entry for assigned DLID %d", lid)
	case stopBadPort:
		msg = fmt.Sprintf("DLID %d routed to invalid physical port %d", lid, w.phys)
	case stopDeadLink:
		sev, loc = Warning, f.chanLabel(path[len(path)-1])
		msg = fmt.Sprintf("entry for DLID %d points at a down link (packets drop here)", lid)
	case stopUnwired:
		loc = f.chanLabel(path[len(path)-1])
		msg = fmt.Sprintf("route for DLID %d falls off the fabric (unwired port)", lid)
	case stopDelivered:
		loc = f.chanLabel(path[len(path)-1])
		msg = fmt.Sprintf("misdelivery: DLID %d owned by %s delivered to %s",
			lid, t.NodeLabel(dst), t.NodeLabel(w.node))
	}
	witness := make([]string, len(path))
	for i, c := range path {
		witness[i] = f.chanLabel(c)
	}
	return Finding{Analyzer: "reachability", Severity: sev, Location: loc, Message: msg, Witness: witness}
}
