package verify

import (
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// stop says why a walk ended.
type stop uint8

const (
	stopDelivered stop = iota // reached node w.node over the last channel
	stopLoop                  // revisited switch w.at; the cycle is chans[loopAt:]
	stopTooLong               // crossed maxSwitches switches without delivery
	stopNoEntry               // w.at has no forwarding entry for the DLID
	stopBadPort               // w.at's entry names invalid physical port w.phys
	stopDeadLink              // the last channel is a recorded dead link
	stopUnwired               // the last channel leads off the fabric
)

// walk is one route followed hop by hop through the live tables — the only
// hop loop of the package: reachability findings, channel dependencies and
// the quality analyzer's path loads are all read off it.
type walk struct {
	// chans lists the out-channels crossed (sw*m + abstract port) in order,
	// including a dead or unwired last hop.
	chans  []int32
	stop   stop
	at     topology.SwitchID // switch where the walk ended
	phys   uint8             // stopBadPort: the entry found
	node   topology.NodeID   // stopDelivered: the node reached
	loopAt int               // stopLoop: index of the cycle's first channel
}

// follow walks dlid's route from switch sw into w, reusing w's buffer.
func (f *fabric) follow(w *walk, sw topology.SwitchID, dlid ib.LID) {
	w.chans = w.chans[:0]
	for {
		w.at = sw
		// sw's out-channels are [sw*m, sw*m+m): a crossed one closes a loop.
		lo := int32(int(sw) * f.m)
		for i, c := range w.chans {
			if c >= lo && c < lo+int32(f.m) {
				w.stop, w.loopAt = stopLoop, i
				return
			}
		}
		if len(w.chans) >= f.maxSwitches {
			w.stop = stopTooLong
			return
		}
		phys := f.in.LFTs[sw].Port(dlid)
		if phys == ib.PortNone {
			w.stop = stopNoEntry
			return
		}
		if phys == 0 || int(phys) > f.m {
			w.stop, w.phys = stopBadPort, phys
			return
		}
		ab := int(phys) - 1
		w.chans = append(w.chans, int32(int(sw)*f.m+ab))
		if f.deadAt(sw, ab) {
			w.stop = stopDeadLink
			return
		}
		ref := f.t.SwitchNeighbor(sw, ab)
		switch ref.Kind {
		case topology.KindNone:
			w.stop = stopUnwired
			return
		case topology.KindNode:
			w.stop, w.node = stopDelivered, ref.Node
			return
		}
		sw = ref.Switch
	}
}

// delivered reports whether the walk reached dst.
func (w *walk) delivered(dst topology.NodeID) bool {
	return w.stop == stopDelivered && w.node == dst
}

// held returns the channels a packet on the route holds in turn: every
// crossed channel but a dead last hop, where the packet drops at once and
// holds nothing further.
func (w *walk) held() []int32 {
	if w.stop == stopDeadLink {
		return w.chans[:len(w.chans)-1]
	}
	return w.chans
}
