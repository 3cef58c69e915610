package mlid_test

import (
	"testing"

	"mlid"
	"mlid/internal/topology"
)

// TestQuickstartFlow exercises the documented end-to-end usage of the public
// API: build a tree, configure the subnet, simulate, inspect results.
func TestQuickstartFlow(t *testing.T) {
	tree, err := mlid.NewTree(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != 32 || tree.Switches() != 12 {
		t.Fatalf("FT(8,2): %d nodes, %d switches", tree.Nodes(), tree.Switches())
	}
	subnet, err := mlid.Configure(tree, mlid.MLID())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mlid.Simulate(mlid.SimConfig{
		Subnet:      subnet,
		Pattern:     mlid.UniformTraffic(tree.Nodes()),
		OfferedLoad: 0.2,
		WarmupNs:    10_000,
		MeasureNs:   50_000,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted < 0.18 || res.Accepted > 0.22 {
		t.Errorf("accepted = %v", res.Accepted)
	}
	if res.MeanLatencyNs <= 0 {
		t.Errorf("latency = %v", res.MeanLatencyNs)
	}
}

func TestFacadeSchemesAndPatterns(t *testing.T) {
	if mlid.MLID().Name() != "MLID" || mlid.SLID().Name() != "SLID" {
		t.Error("scheme names")
	}
	if len(mlid.Schemes()) != 2 {
		t.Error("Schemes()")
	}
	if _, err := mlid.SchemeByName("MLID"); err != nil {
		t.Error(err)
	}
	if _, err := mlid.SchemeByName("x"); err == nil {
		t.Error("bad scheme accepted")
	}
	for _, name := range []string{"uniform", "centric", "bitreversal"} {
		if _, err := mlid.PatternByName(name, 8, 0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if p := mlid.CentricTraffic(16, 3, 0.5); p.Name() == "" {
		t.Error("centric name")
	}
}

func TestFacadeRoutingAndAnalysis(t *testing.T) {
	tree, _ := mlid.NewTree(4, 3)
	p, err := mlid.Trace(tree, mlid.MLID(), 0, 9)
	if err != nil || p.Dst != 9 {
		t.Fatalf("Trace: %v %+v", err, p)
	}
	paths, err := mlid.AllPaths(tree, mlid.MLID(), 0, 9)
	if err != nil || len(paths) == 0 {
		t.Fatalf("AllPaths: %v", err)
	}
	rep, err := mlid.LinkLoad(tree, mlid.SLID(), mlid.AllToOne(tree, 9))
	if err != nil || rep.Max <= 0 {
		t.Fatalf("LinkLoad: %v %+v", err, rep)
	}
	faults := mlid.NewFaultSet()
	lid, _, ok := mlid.SelectDLID(tree, mlid.MLID(), 0, 9, faults)
	if !ok || lid == 0 {
		t.Fatalf("SelectDLID: %v %v", lid, ok)
	}
}

func TestFacadeEvalHarness(t *testing.T) {
	if len(mlid.EvalFigures()) != 8 || len(mlid.EvalQuickFigures()) != 8 {
		t.Error("figure counts")
	}
	if len(mlid.EvalNetworks()) != 4 {
		t.Error("network count")
	}
	rows, err := mlid.EvalTable1(mlid.EvalNetworks())
	if err != nil || len(rows) != 4 {
		t.Fatalf("Table1: %v", err)
	}
	if _, err := mlid.EvalFigureByID("F8"); err != nil {
		t.Error(err)
	}
}

func TestFacadeReceptionConstants(t *testing.T) {
	if mlid.ReceptionIdeal == mlid.ReceptionLink {
		t.Error("reception constants collide")
	}
}

// TestCheckDeadlockFreePins pins the facade's channel-dependency counts on
// healthy fabrics under both schemes (the counts ibtopo -deadlock prints)
// and requires a cycle on tables rewired against up*/down*.
func TestCheckDeadlockFreePins(t *testing.T) {
	for _, c := range []struct {
		m, n           int
		scheme         mlid.Scheme
		channels, deps int
	}{
		{4, 1, mlid.MLID(), 4, 0},
		{4, 1, mlid.SLID(), 4, 0},
		{4, 2, mlid.MLID(), 24, 40},
		{4, 2, mlid.SLID(), 24, 32},
		{8, 3, mlid.MLID(), 640, 2816},
		{8, 3, mlid.SLID(), 640, 2048},
	} {
		tree, _ := mlid.NewTree(c.m, c.n)
		sn, err := mlid.Configure(tree, c.scheme)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mlid.CheckDeadlockFree(sn)
		if err != nil {
			t.Fatalf("%s %s: %v", tree, c.scheme.Name(), err)
		}
		if !rep.Free() || rep.Channels != c.channels || rep.Dependencies != c.deps {
			t.Fatalf("%s %s: %+v, want free with %d channels, %d dependencies",
				tree, c.scheme.Name(), rep, c.channels, c.deps)
		}
	}

	// Cyclic tables on SLID FT(4,2): node 0's LID (1) climbs from leaf A
	// to root r0, descends to leaf B, climbs again through r1 and reaches
	// A; the last node's LID takes the mirror kink through leaf A. Every
	// route still delivers, but the kinks close a channel-dependency cycle.
	tree, _ := mlid.NewTree(4, 2)
	sn, err := mlid.Configure(tree, mlid.SLID())
	if err != nil {
		t.Fatal(err)
	}
	leafA, _ := tree.NodeAttachment(0)
	leafB, _ := tree.NodeAttachment(mlid.NodeID(tree.Nodes() - 1))
	roots := tree.SwitchesWithPrefix(nil, 0)
	r0, r1 := roots[0], roots[1]
	set := func(from, to mlid.SwitchID, lid mlid.LID) {
		for k := 0; k < tree.M(); k++ {
			if ref := tree.SwitchNeighbor(from, k); ref.Kind == topology.KindSwitch && ref.Switch == to {
				if err := sn.LFTs[from].Set(lid, uint8(k+1)); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("no link %d->%d", from, to)
	}
	lidB := mlid.LID(tree.Nodes())
	set(r0, leafB, 1)
	set(leafB, r1, 1)
	set(r1, leafA, lidB)
	set(leafA, r0, lidB)
	rep, err := mlid.CheckDeadlockFree(sn)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Free() || len(rep.Cycle) < 3 {
		t.Fatalf("cyclic tables: %+v, want a dependency cycle", rep)
	}
}
