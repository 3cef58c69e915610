package sim

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/traffic"
)

// TestSourceBacklogRoundTrip drives one source queue across several block
// boundaries with interleaved pushes and pops: packets must come back in
// FIFO order with every field a waiting packet carries intact, and a
// drained queue must keep at most one block, returning the rest for reuse.
func TestSourceBacklogRoundTrip(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	s := build(Config{Subnet: sn, Pattern: traffic.Uniform{Nodes: sn.Tree.Nodes()}, OfferedLoad: 0.1, DataVLs: 2}.withDefaults())
	const node, vl = 3, 1
	pid := s.nodePid(node)
	want := func(i int) pkt {
		var p pkt
		p.Packet = ib.Packet{
			SLID: sn.Endports[node].Base, DLID: ib.LID(100 + i), VL: vl, Size: 256 + i,
			Seq: uint64(1000 + i), Src: node, Dst: int32(i % 7), GenTime: Time(10 * i),
		}
		p.flowSeq, p.cum, p.sack = uint32(i), uint32(2*i), uint32(3*i)
		p.ctrl, p.rexmit = uint8(i%3), i%2 == 0
		return p
	}
	push := func(i int) {
		p := s.newPkt()
		idx := p.idx
		*p = want(i)
		p.idx, p.upstream = idx, noPort
		s.enqueue(pid, p)
	}
	next, total := 0, 3*srcBlockLen+5
	pop := func() {
		p := s.dequeue(pid, vl)
		w := want(next)
		if p.Packet != w.Packet || p.flowSeq != w.flowSeq || p.cum != w.cum || p.sack != w.sack ||
			p.ctrl != w.ctrl || p.rexmit != w.rexmit || p.upstream != noPort || p.trace != nil {
			t.Fatalf("packet %d came back as %+v, want %+v", next, *p, w)
		}
		next++
		s.freePkt(p)
	}
	for i := 0; i < total; i++ {
		push(i)
		if i%3 == 2 {
			pop()
		}
	}
	if got, wantN := s.queued(pid, vl), total-next; got != wantN {
		t.Fatalf("queued = %d, want %d", got, wantN)
	}
	for next < total {
		pop()
	}
	q := &s.srcQ[node*s.vls+vl]
	if s.queued(pid, vl) != 0 || len(q.blocks) > 1 || len(s.srcFree) == 0 {
		t.Fatalf("drained queue: n=%d blocks=%d free=%d", q.n, len(q.blocks), len(s.srcFree))
	}
}
