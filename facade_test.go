package mlid_test

import (
	"strings"
	"testing"

	"mlid"
)

func TestFacadeMADAndBatch(t *testing.T) {
	tree, err := mlid.NewTree(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := mlid.ConfigureViaMAD(tree, mlid.MLID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mlid.SimulateBatch(mlid.BatchConfig{
		Subnet:   sn,
		Messages: mlid.GatherMessages(tree, 0, 1024),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanNs <= 0 || res.Packets != int64((tree.Nodes()-1)*4) {
		t.Fatalf("%+v", res)
	}
	a2a := mlid.AllToAllMessages(tree, 256)
	if len(a2a) != tree.Nodes()*(tree.Nodes()-1) {
		t.Fatalf("%d messages", len(a2a))
	}
}

func TestFacadeDeadlockAndRepair(t *testing.T) {
	tree, _ := mlid.NewTree(4, 2)
	sn, err := mlid.Configure(tree, mlid.MLID())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mlid.CheckDeadlockFree(sn)
	if err != nil || !rep.Free() {
		t.Fatalf("deadlock: %v %+v", err, rep)
	}
	faults := mlid.NewFaultSet()
	leaf, _ := tree.NodeAttachment(0)
	faults.FailLink(tree, leaf, tree.DownPorts(leaf))
	remapped, _, err := mlid.RepairSubnet(sn, faults)
	if err != nil || remapped == 0 {
		t.Fatalf("repair: %v remapped %d", err, remapped)
	}
	p, err := mlid.TraceSubnet(sn, 0, sn.Endports[7].Base)
	if err != nil || p.Dst != 7 {
		t.Fatalf("TraceSubnet: %v %+v", err, p)
	}
}

func TestFacadeComparisonAndHistogram(t *testing.T) {
	tree, _ := mlid.NewTree(8, 2)
	ft := tree.FamilyStats()
	kary, err := mlid.KaryNTreeStats(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := mlid.FormatFamilyComparison(ft, kary)
	if !strings.Contains(out, "k-ary") {
		t.Errorf("comparison:\n%s", out)
	}
	h := mlid.NewHistogram(100, 16)
	h.Add(250)
	if h.Total() != 1 {
		t.Error("histogram")
	}
}

func TestFacadePatternsAndPolicies(t *testing.T) {
	p := mlid.MultiHotspotTraffic(16, []int{1, 2}, 0.5)
	if p.Name() == "" {
		t.Error("multi-hotspot name")
	}
	l := mlid.LocalTraffic(16, 4, 0.8)
	if l.Name() == "" {
		t.Error("local name")
	}
	if mlid.SelectRank().Name() == mlid.SelectRandom().Name() {
		t.Error("path policies collide")
	}
	if got := len(mlid.SelectorNames()); got != 5 {
		t.Errorf("SelectorNames: %d names, want 5", got)
	}
	if _, err := mlid.SelectorByName("adaptive"); err != nil {
		t.Errorf("SelectorByName(adaptive): %v", err)
	}
	if mlid.VLRoundRobin == mlid.VLByDLID {
		t.Error("VL policies collide")
	}
	if mlid.SwitchingVCT == mlid.SwitchingSAF {
		t.Error("switching modes collide")
	}
}

func TestFacadeObservationsAndReport(t *testing.T) {
	spec, err := mlid.EvalFigureByID("F5")
	if err != nil {
		t.Fatal(err)
	}
	spec.Network = mlid.EvalNetwork{M: 4, N: 2}
	spec.Loads = []float64{0.2, 0.6}
	spec.VLs = []int{1}
	spec.WarmupNs = 5_000
	spec.MeasureNs = 20_000
	fig, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	obs := mlid.CheckObservations([]mlid.EvalFigure{fig})
	if len(obs) != 5 {
		t.Fatalf("%d observations", len(obs))
	}
	rep, err := mlid.EvalReport([]mlid.EvalFigure{fig}, obs)
	if err != nil || !strings.Contains(rep, "Reproduction report") {
		t.Fatalf("report: %v", err)
	}
}

func TestFacadeSimKnobs(t *testing.T) {
	tree, _ := mlid.NewTree(4, 2)
	sn, err := mlid.Configure(tree, mlid.SLID())
	if err != nil {
		t.Fatal(err)
	}
	hist := mlid.NewHistogram(64, 20)
	res, err := mlid.Simulate(mlid.SimConfig{
		Subnet:           sn,
		Pattern:          mlid.UniformTraffic(tree.Nodes()),
		OfferedLoad:      0.2,
		Reception:        mlid.ReceptionLink,
		PathSelect:       mlid.SelectRandom(),
		VLSelect:         mlid.VLByDLID,
		Switching:        mlid.SwitchingSAF,
		LatencyHist:      hist,
		CollectPortStats: true,
		TracePackets:     2,
		WarmupNs:         5_000,
		MeasureNs:        30_000,
		Seed:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredWindow == 0 || hist.Total() == 0 || len(res.PortStats) == 0 || len(res.Traces) != 2 {
		t.Fatalf("knobs not honored: %+v", res)
	}
}

func TestFacadeExportImport(t *testing.T) {
	tree, _ := mlid.NewTree(4, 2)
	sn, err := mlid.Configure(tree, mlid.SLID())
	if err != nil {
		t.Fatal(err)
	}
	data, err := mlid.ExportSubnet(sn)
	if err != nil {
		t.Fatal(err)
	}
	back, err := mlid.ImportSubnet(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Engine.Name() != "SLID" || back.LIDSpace() != sn.LIDSpace() {
		t.Fatalf("imported %s space %d", back.Engine.Name(), back.LIDSpace())
	}
	if _, err := mlid.ImportSubnet([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestFacadeOptimizePaths(t *testing.T) {
	tree, _ := mlid.NewTree(8, 2)
	flows := []mlid.Flow{{Src: 0, Dst: 25, Weight: 5}, {Src: 4, Dst: 26, Weight: 5}}
	plan, err := mlid.OptimizePaths(tree, flows)
	if err != nil || plan.Planned() != 2 {
		t.Fatalf("OptimizePaths: %v", err)
	}
	sn, err := mlid.Configure(tree, mlid.MLID())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mlid.SimulateBatch(mlid.BatchConfig{
		Subnet:   sn,
		Messages: []mlid.Message{{Src: 0, Dst: 25, Bytes: 1024}, {Src: 4, Dst: 26, Bytes: 1024}},
		DLIDFunc: func(src, dst mlid.NodeID) mlid.LID {
			return plan.DLID(tree, mlid.MLID(), src, dst)
		},
		Seed: 1,
	})
	if err != nil || res.Packets != 8 {
		t.Fatalf("batch over plan: %v %+v", err, res)
	}
}

// TestFacadeFailLinkBadSwitch: naming a switch the tree does not have is no
// reason to panic; the fault set records the named endpoint and no peer.
func TestFacadeFailLinkBadSwitch(t *testing.T) {
	tree, err := mlid.NewTree(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []mlid.SwitchID{9999, -1, mlid.SwitchID(tree.Switches())} {
		fs := mlid.NewFaultSet()
		fs.FailLink(tree, sw, 0)
		if fs.Len() != 1 {
			t.Fatalf("FailLink(%d, 0) registered %d endpoints, want 1", sw, fs.Len())
		}
	}
}
