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

// checkReachability walks every (leaf switch, assigned LID) route through
// the live tables — every packet enters the fabric at a leaf, so these walks
// cover every forwardable (source, DLID) pair — and hands each walk to the
// lanes' dependency graphs. Loops, dead ends, misdeliveries and fall-offs
// are errors with the walked path as witness; entries pointing at recorded
// dead links are warnings (the drop is the documented fate of an
// unrepaireable entry); a destination whose every LID is dead from some
// leaf gets one aggregated unreachability warning.
func (f *fabric) checkReachability(rep *Report, g *lanes) {
	t := f.t
	seen := make(map[entryKey]bool)
	var w walk
	for sw := 0; sw < t.Switches(); sw++ {
		leaf := topology.SwitchID(sw)
		if !t.IsLeaf(leaf) {
			continue
		}
		for p := 0; p < t.Nodes(); p++ {
			dst := topology.NodeID(p)
			r := f.in.Endports[p]
			reached, deadBlocked, routes := 0, 0, 0
			for off := 0; off < r.Count(); off++ {
				lid := int(r.Base) + off
				if lid <= 0 || lid >= f.space || f.owner[lid] != int32(p) {
					continue // addressing already flagged the inconsistency
				}
				routes++
				f.follow(&w, leaf, ib.LID(lid))
				g.add(ib.LID(lid), &w)
				if w.delivered(dst) {
					reached++
					continue
				}
				if w.stop == stopDeadLink {
					deadBlocked++
				}
				if k := (entryKey{int32(w.at), lid}); !seen[k] {
					seen[k] = true
					rep.add(f.cap, f.routeFinding(&w, lid, dst))
				}
			}
			rep.Stats.RoutesChecked += routes
			// Aggregate unreachability: only when every failure is
			// fault-explained (defects already carry their own errors).
			if routes > 0 && reached == 0 && deadBlocked == routes {
				rep.add(f.cap, Finding{
					Analyzer: "reachability",
					Severity: Warning,
					Location: t.SwitchLabel(leaf),
					Message: fmt.Sprintf("destination %s unreachable: all %d of its LIDs hit dead links from this leaf",
						t.NodeLabel(dst), routes),
					Witness: nil,
				})
			}
		}
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
