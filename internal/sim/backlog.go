package sim

import "mlid/internal/ib"

// Source backlogs. A source port's queue is the open-loop generator's
// unbounded backlog: past saturation nearly every generated packet waits
// there, so it is the bulk of a saturated run's memory. A waiting packet is
// therefore not a slab pkt but a packed, pointer-free srcPkt in a chain of
// fixed-size blocks; the full pkt is materialized only when the source
// starts transmitting it (or drops it at a dead link). Nothing a waiting
// packet carries is lost: SLID and Src follow from the source, VL from the
// queue, and it has not yet been injected, holds no upstream credit and has
// visited no switch.

// srcPkt is the part of a source-queued packet that varies.
type srcPkt struct {
	Seq     uint64
	GenTime Time
	Size    int
	Dst     int32
	flowSeq uint32
	cum     uint32
	sack    uint32
	// traced marks a packet with a PacketTrace: generate traces the first
	// TracePackets packets, so the trace of Seq k is Sim.traces[k-1].
	traced bool
	DLID   ib.LID
	ctrl   uint8
	rexmit bool
}

// srcBlockLen is the number of packets per backlog block: small enough that
// the one partly filled block each non-empty queue holds costs little, large
// enough that the block chain adds under a byte per queued packet.
const srcBlockLen = 16

type srcBlock [srcBlockLen]srcPkt

// srcQueue is a FIFO of srcPkt: blocks[0][head] is the front, the last
// block's tail-1 the back. Emptied blocks return to Sim.srcFree.
type srcQueue struct {
	blocks     []*srcBlock
	head, tail int
	n          int
}

// queued reports the packets waiting at port pid on vl.
func (s *Sim) queued(pid int32, vl int) int {
	if pid >= s.srcBase {
		return s.srcQ[int(pid-s.srcBase)*s.vls+vl].n
	}
	return s.queues[int(pid)*s.vls+vl].len()
}

// enqueue appends p to port pid's queue on p's VL.
func (s *Sim) enqueue(pid int32, p *pkt) {
	if pid >= s.srcBase {
		s.enqueueSrc(pid-s.srcBase, p)
		return
	}
	s.queues[int(pid)*s.vls+int(p.VL)].push(p)
}

// dequeue removes the front packet of port pid's queue on vl.
func (s *Sim) dequeue(pid int32, vl int) *pkt {
	if pid >= s.srcBase {
		return s.dequeueSrc(pid-s.srcBase, vl)
	}
	return s.queues[int(pid)*s.vls+vl].popFront()
}

// enqueueSrc packs p into its source's backlog and recycles the pkt.
func (s *Sim) enqueueSrc(node int32, p *pkt) {
	q := &s.srcQ[int(node)*s.vls+int(p.VL)]
	if len(q.blocks) == 0 || q.tail == srcBlockLen {
		var b *srcBlock
		if n := len(s.srcFree); n > 0 {
			b = s.srcFree[n-1]
			s.srcFree = s.srcFree[:n-1]
		} else {
			b = new(srcBlock)
		}
		q.blocks = append(q.blocks, b)
		q.tail = 0
	}
	e := &q.blocks[len(q.blocks)-1][q.tail]
	*e = srcPkt{
		Seq: p.Seq, GenTime: p.GenTime, Size: p.Size, Dst: p.Dst,
		flowSeq: p.flowSeq, cum: p.cum, sack: p.sack,
		DLID: p.DLID, ctrl: p.ctrl, rexmit: p.rexmit,
	}
	e.traced = p.trace != nil
	q.tail++
	q.n++
	s.freePkt(p)
}

// dequeueSrc removes the front of node's backlog on vl and materializes it
// as a pkt.
func (s *Sim) dequeueSrc(node int32, vl int) *pkt {
	q := &s.srcQ[int(node)*s.vls+vl]
	e := &q.blocks[0][q.head]
	p := s.newPkt()
	p.Packet = ib.Packet{
		SLID: s.cfg.Subnet.Endports[node].Base, DLID: e.DLID, VL: uint8(vl),
		Size: e.Size, Seq: e.Seq, Src: node, Dst: e.Dst, GenTime: e.GenTime,
	}
	p.flowSeq, p.cum, p.sack = e.flowSeq, e.cum, e.sack
	p.ctrl, p.rexmit = e.ctrl, e.rexmit
	if e.traced {
		p.trace = s.traces[e.Seq-1]
	}
	q.head++
	q.n--
	switch {
	case q.n == 0:
		// head met tail in the only block: keep it for the next push.
		q.head, q.tail = 0, 0
	case q.head == srcBlockLen:
		s.srcFree = append(s.srcFree, q.blocks[0])
		q.blocks[0] = nil
		q.blocks = q.blocks[1:]
		q.head = 0
	}
	return p
}
