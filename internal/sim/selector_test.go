package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// TestDLIDFuncComposesWithReselect is the regression test for the policy
// composition bug: Config.DLIDFunc used to bypass the fault-reselection layer
// entirely, so a custom policy kept steering packets onto LIDs whose paths the
// SM already knew were dead. Composition order is now fixed — reselection
// filters the offsets first, then the custom policy's choice is honored when
// it survives and redirected to the nearest surviving offset when it doesn't.
func TestDLIDFuncComposesWithReselect(t *testing.T) {
	const downNs = 50_000
	run := func(reselect bool) Result {
		plan := &FaultPlan{
			Faults:   []LinkFault{{Switch: 2, Port: 2, DownNs: downNs}},
			Reselect: reselect,
		}
		cfg := faultCfg(t, core.NewMLID(), plan)
		sn := cfg.Subnet
		// The custom policy is the scheme's own canonical choice — the point
		// is that it is routed through the reselection filter, not that it is
		// clever.
		cfg.DLIDFunc = func(src, dst topology.NodeID) ib.LID {
			return sn.DLID(src, dst)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.TotalDelivered + res.DroppedTotal + res.InFlightAtEnd; got != res.TotalGenerated {
			t.Errorf("reselect=%v: packet conservation: delivered+dropped+inflight = %d, generated = %d",
				reselect, got, res.TotalGenerated)
		}
		return res
	}
	with, without := run(true), run(false)
	if with.Reroutes == 0 {
		t.Errorf("DLIDFunc under Reselect produced no reroutes: the custom policy bypassed reselection")
	}
	if without.Reroutes != 0 {
		t.Errorf("DLIDFunc without Reselect counted %d reroutes", without.Reroutes)
	}
	if without.DroppedTotal == 0 {
		t.Fatalf("control run without Reselect saw no drops; the fault scenario is inert")
	}
	if with.DroppedTotal >= without.DroppedTotal {
		t.Errorf("DLIDFunc with Reselect dropped %d packets, want fewer than the %d without: "+
			"reselection did not steer the custom policy off the dead link",
			with.DroppedTotal, without.DroppedTotal)
	}
	// Once the SM's repair lands and stale in-flight packets drain, the
	// reselecting run must stop dropping entirely.
	repairNs := downNs + with.RecoveryNs + 10_000
	for _, sp := range with.Series {
		if sp.StartNs >= repairNs && sp.Dropped != 0 {
			t.Errorf("bin %d ns: %d drops after recovery with DLIDFunc under reselection",
				sp.StartNs, sp.Dropped)
		}
	}
}

// TestNilPathSelectIsRank pins the default: a nil Config.PathSelect resolves
// to the rank selector and produces a bit-identical Result.
func TestNilPathSelectIsRank(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), nil)
	run := func(sel Selector) Result {
		c := cfg
		c.PathSelect = sel
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(nil), run(SelectRank()); !reflect.DeepEqual(a, b) {
		t.Errorf("nil PathSelect differs from SelectRank():\n nil:  %s\n rank: %s",
			fingerprint(a), fingerprint(b))
	}
}

// TestRankSelectorUnit exercises the rank policy's two regimes directly:
// canonical while it survives, nearest cyclic survivor (counted as a reroute)
// when it doesn't.
func TestRankSelectorUnit(t *testing.T) {
	c := &SelectContext{Count: 4, Canonical: 2, Mask: 0b1111, Full: true}
	if off, rr := SelectRank().Select(c); off != 2 || rr {
		t.Errorf("full mask: got (%d, %v), want (2, false)", off, rr)
	}
	// Canonical 2 dead, offset 3 dead too: the cyclic scan from 2 must skip
	// to the nearest survivor, offset 0, and count the move as a reroute.
	c.Mask, c.Full = 0b0011, false
	if off, rr := SelectRank().Select(c); off != 0 || !rr {
		t.Errorf("masked canonical: got (%d, %v), want (0, true)", off, rr)
	}
}

// TestFlowSprayUnit pins the flow-spray contract: the first packet of a flow
// draws a pin, subsequent packets reuse it without touching the RNG, and a
// fault displacing the pin forces one counted redraw among the survivors.
func TestFlowSprayUnit(t *testing.T) {
	var state uint32
	rng := rand.New(rand.NewSource(9))
	c := &SelectContext{Count: 4, Mask: 0b1111, Full: true, RNG: rng, state: &state}
	first, rr := SelectFlowSpray().Select(c)
	if rr {
		t.Errorf("first draw counted as a reroute")
	}
	if state != uint32(first)+1 {
		t.Errorf("pin not stored: state=%d after offset %d", state, first)
	}
	// Later packets must not draw: a nil RNG would panic on any Intn call.
	c.RNG = nil
	for i := 0; i < 3; i++ {
		if off, rr := SelectFlowSpray().Select(c); off != first || rr {
			t.Fatalf("packet %d: got (%d, %v), want pinned (%d, false)", i, off, rr, first)
		}
	}
	// Kill the pinned offset: the redraw is a reroute and lands on a survivor.
	c.RNG = rng
	c.Mask = 0b1111 &^ (1 << uint(first))
	c.Full = false
	off, rr := SelectFlowSpray().Select(c)
	if !rr {
		t.Errorf("displaced pin not counted as a reroute")
	}
	if off == first || c.Mask&(1<<uint(off)) == 0 {
		t.Errorf("redraw landed on %d (mask %04b, dead pin %d)", off, c.Mask, first)
	}
	if state != uint32(off)+1 {
		t.Errorf("new pin not stored: state=%d after offset %d", state, off)
	}
}

// TestPktSprayUnit pins per-packet spraying: consecutive sequence numbers
// rotate round-robin over the usable offsets, visiting each exactly once per
// cycle, with no RNG draws at all (the context carries a nil RNG).
func TestPktSprayUnit(t *testing.T) {
	c := &SelectContext{Src: 3, Dst: 11, Count: 4, Mask: 0b1011, Full: false}
	seen := map[int]int{}
	var prev int
	for seq := uint32(0); seq < 6; seq++ {
		c.Seq = seq
		off, rr := SelectPktSpray().Select(c)
		if c.Mask&(1<<uint(off)) == 0 {
			t.Fatalf("seq %d: offset %d is masked out", seq, off)
		}
		if !rr {
			t.Errorf("seq %d: partial mask not counted as a reroute", seq)
		}
		if seq > 0 && off == prev {
			t.Errorf("seq %d: no rotation (offset %d twice in a row)", seq, off)
		}
		prev = off
		seen[off]++
	}
	// 6 packets over 3 usable offsets: exactly two visits each.
	for _, off := range []int{0, 1, 3} {
		if seen[off] != 2 {
			t.Errorf("offset %d visited %d times in 6 packets, want 2 (%v)", off, seen[off], seen)
		}
	}
	// The full-mask single-candidate case is not a reroute.
	c.Seq, c.Count, c.Mask, c.Full = 0, 1, 1, true
	if off, rr := SelectPktSpray().Select(c); off != 0 || rr {
		t.Errorf("single candidate: got (%d, %v), want (0, false)", off, rr)
	}
}

// TestAdaptiveCongestionSteering drives the adaptive selector through a built
// (but not started) simulator, mutating the first-hop congestion counters
// directly: it starts on the canonical path, switches when another offset's
// Load undercuts it by the hysteresis, holds through sub-hysteresis
// differences, and abandons a pinned path whose first hop dies.
func TestAdaptiveCongestionSteering(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), nil)
	cfg.PathSelect = SelectAdaptive()
	s := build(cfg.withDefaults())
	if s.err != nil {
		t.Fatal(s.err)
	}
	src, dst := topology.NodeID(0), topology.NodeID(7) // distinct leaves of FT(4,2)
	r := cfg.Subnet.Endports[dst]
	if r.Count() != 2 {
		t.Fatalf("MLID FT(4,2) gives %d LIDs to node 7, want 2", r.Count())
	}
	canonical := int(cfg.Subnet.DLID(src, dst) - r.Base)
	alt := 1 - canonical
	leafSw := int(s.ports[s.nodePid(int32(src))].destSw)
	firstHop := func(off int) int32 {
		return s.fwdAt(leafSw*s.lftSize + int(r.Base) + off)
	}
	pidCanon, pidAlt := firstHop(canonical), firstHop(alt)
	if pidCanon < 0 || pidAlt < 0 || pidCanon == pidAlt {
		t.Fatalf("offsets share or lack first-hop ports: canonical %d, alt %d", pidCanon, pidAlt)
	}
	sel := func() int {
		return int(s.selectDLID(&s.nodes[src], src, dst, 0) - r.Base)
	}

	// Quiet fabric: every load equal, the flow starts (and stays) canonical.
	if got := sel(); got != canonical {
		t.Fatalf("quiet fabric: offset %d, want canonical %d", got, canonical)
	}
	// A single buffered packet on the canonical first hop is within the
	// hysteresis (ordinary queueing noise): the flow must hold its path.
	s.cv[int(pidCanon)*s.vls].occupancy++
	if got := sel(); got != canonical {
		t.Errorf("one-packet imbalance: offset %d, want held canonical %d", got, canonical)
	}
	// A second buffered packet clears the one-packet hysteresis: switch.
	s.cv[int(pidCanon)*s.vls].occupancy++
	if got := sel(); got != alt {
		t.Errorf("congested canonical hop: offset %d, want alt %d", got, alt)
	}
	// Clear it. The pin now trails canonical by one buffered packet — within
	// the switching threshold, so no flap back.
	s.cv[int(pidCanon)*s.vls].occupancy -= 2
	s.cv[int(pidAlt)*s.vls].occupancy++
	if got := sel(); got != alt {
		t.Errorf("sub-hysteresis difference: offset %d, want pinned alt %d", got, alt)
	}
	s.cv[int(pidAlt)*s.vls].occupancy--
	// The pinned first hop dies: unreachable load forces the move home.
	s.ports[pidAlt].dead = true
	if got := sel(); got != canonical {
		t.Errorf("dead pinned hop: offset %d, want canonical %d", got, canonical)
	}
	if s.reroutes != 0 {
		t.Errorf("congestion moves counted %d fault reroutes", s.reroutes)
	}
}

// TestFlowSprayKeepsOrder: per-flow pinning composes with DLID-pinned VLs into
// fully in-order delivery — the spray randomizes across flows, never within
// one.
func TestFlowSprayKeepsOrder(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		OfferedLoad: 0.7,
		DataVLs:     4,
		VLSelect:    VLByDLID,
		PathSelect:  SelectFlowSpray(),
		WarmupNs:    20_000,
		MeasureNs:   100_000,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelivered == 0 {
		t.Fatal("no deliveries")
	}
	if res.OutOfOrder != 0 {
		t.Errorf("flowspray reordered %d deliveries; per-flow pins must keep order", res.OutOfOrder)
	}
}

// TestPktSprayReorders: per-packet spraying reorders by construction once
// paths with different queueing delays interleave; OutOfOrder quantifies it.
func TestPktSprayReorders(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		OfferedLoad: 0.7,
		DataVLs:     4,
		VLSelect:    VLByDLID,
		PathSelect:  SelectPktSpray(),
		WarmupNs:    20_000,
		MeasureNs:   100_000,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelivered == 0 {
		t.Fatal("no deliveries")
	}
	if res.OutOfOrder == 0 {
		t.Errorf("pktspray delivered everything in order; spraying should reorder under load")
	}
}

// TestSelectorFamilyFaultDeterminism runs every selector through the faulted
// demo scenario twice and on both scheduler paths: identical Results each
// time.
func TestSelectorFamilyFaultDeterminism(t *testing.T) {
	for _, name := range SelectorNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sel, err := SelectorByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plan := &FaultPlan{
				Faults: []LinkFault{
					{Switch: 2, Port: 2, DownNs: 25_000, UpNs: 60_000},
					{Switch: 0, Port: 1, DownNs: 35_000},
				},
				Reselect: true,
			}
			cfg := faultCfg(t, core.NewMLID(), plan)
			cfg.PathSelect = sel
			run := func(heapOnly bool) Result {
				c := cfg
				c.HeapOnlyScheduler = heapOnly
				res, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(false), run(false)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: same faulted config, different results:\n a: %s\n b: %s",
					name, fingerprint(a), fingerprint(b))
			}
			heapOnly := run(true)
			if !reflect.DeepEqual(a, heapOnly) {
				t.Errorf("%s: calendar and heap-only schedulers disagree:\n cal:  %s\n heap: %s",
					name, fingerprint(a), fingerprint(heapOnly))
			}
			if a.TotalDelivered == 0 {
				t.Errorf("%s: no deliveries", name)
			}
			if got := a.TotalDelivered + a.DroppedTotal + a.InFlightAtEnd; got != a.TotalGenerated {
				t.Errorf("%s: packet conservation: delivered+dropped+inflight = %d, generated = %d",
					name, got, a.TotalGenerated)
			}
		})
	}
}

// TestPktSprayTransportConservation rides per-packet spraying on the reliable
// transport across a mid-run outage: the spray reorders and the fault drops,
// the transport's out-of-order buffering and retries absorb both, and the
// accounting identity still closes exactly after the drain.
func TestPktSprayTransportConservation(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		DataVLs:     2,
		OfferedLoad: 0.5,
		PathSelect:  SelectPktSpray(),
		WarmupNs:    5_000, MeasureNs: 25_000,
		Seed: 31,
		FaultPlan: &FaultPlan{
			Faults:   []LinkFault{{Switch: 2, Port: 0, DownNs: 8_000, UpNs: 20_000}},
			Reselect: true,
		},
		Transport: &TransportConfig{MaxRetries: 2, DrainNs: 120_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelivered == 0 {
		t.Fatal("no deliveries")
	}
	if res.Retransmits == 0 {
		t.Errorf("expected retransmissions across the outage, got none")
	}
	if got := res.TotalDelivered + res.Failed + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("transport conservation: delivered+failed+inflight = %d, generated = %d",
			got, res.TotalGenerated)
	}
	if res.InFlightAtEnd != 0 {
		t.Errorf("InFlightAtEnd = %d, want 0 after the drain", res.InFlightAtEnd)
	}
}

// TestStatefulSelectorFabricCap: selectors that pin per-(src,dst) state are
// rejected up front on fabrics beyond the 4096-node flow-state budget.
func TestStatefulSelectorFabricCap(t *testing.T) {
	tr := topology.MustNew(32, 3) // 8192 nodes
	if tr.Nodes() <= 4096 {
		t.Fatalf("test fabric has %d nodes, need > 4096", tr.Nodes())
	}
	// validate rejects before build, so a bare Subnet shell suffices — no
	// table configuration for 8k nodes in a unit test.
	cfg := Config{
		Subnet:      &ib.Subnet{Tree: tr},
		Pattern:     traffic.Uniform{Nodes: tr.Nodes()},
		OfferedLoad: 0.3,
		PathSelect:  SelectFlowSpray(),
	}
	if err := cfg.withDefaults().validate(); err == nil || !strings.Contains(err.Error(), "4096") {
		t.Errorf("flowspray on 8192 nodes: err = %v, want the 4096-node cap", err)
	}
	cfg.PathSelect = SelectPktSpray() // stateless: must pass validation
	if err := cfg.withDefaults().validate(); err != nil {
		t.Errorf("stateless pktspray rejected on a large fabric: %v", err)
	}
}
