package verify_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/verify"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// brokenFabric is FT(8,2) MLID with unrepaired tables and every kind of
// reachability defect at once: a leaf-to-root forwarding loop, a dead-end
// entry at a root, a dead leaf up-link, a dead root-to-leaf link (reached
// over different paths from different leaves, so the dedup's choice of
// witness shows) and a dead node link, which leaves one destination
// unreachable from every leaf.
func brokenFabric(t *testing.T) verify.Input {
	t.Helper()
	sn := configured(t, 8, 2, core.NewMLID())
	tr := sn.Tree
	var roots, leaves []topology.SwitchID
	for sw := 0; sw < tr.Switches(); sw++ {
		id := topology.SwitchID(sw)
		if tr.IsRoot(id) {
			roots = append(roots, id)
		}
		if tr.IsLeaf(id) {
			leaves = append(leaves, id)
		}
	}
	// Loop: leaf0 <-> root0 for the last node's base LID.
	last := topology.NodeID(tr.Nodes() - 1)
	loopLID := sn.Endports[last].Base
	mustSet(t, sn.LFTs[leaves[0]], loopLID, portTo(tr, leaves[0], roots[0]))
	mustSet(t, sn.LFTs[roots[0]], loopLID, portTo(tr, roots[0], leaves[0]))
	// Dead end: root2 forgets one of node 9's LIDs.
	if err := sn.LFTs[roots[2]].Set(sn.Endports[9].Base+2, ib.PortNone); err != nil {
		t.Fatal(err)
	}
	in := verify.FromSubnet(sn)
	leafOfLast, lastPort := tr.NodeAttachment(last)
	in.DeadLinks = [][2]int32{
		{int32(leaves[1]), int32(tr.DownPorts(leaves[1]))},        // leaf1 up-link
		{int32(roots[1]), int32(portTo(tr, roots[1], leaves[3]))}, // root1 -> leaf3
		{int32(leafOfLast), int32(lastPort)},                      // the last node's link
	}
	return in
}

// TestBrokenFabricReportGolden pins the verifier's report for brokenFabric,
// human and JSON, byte for byte: the findings' order, which walk each
// deduplicated finding keeps as witness, where the per-analyzer cap cuts
// the list and how many findings it suppresses. Run with -update to
// re-record.
func TestBrokenFabricReportGolden(t *testing.T) {
	rep, err := verify.Run(brokenFabric(t), verify.Options{VLs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must keep exercising what it pins.
	if rep.Stats.Suppressed == 0 {
		t.Fatalf("no findings suppressed: the cap is not exercised (%d findings)", len(rep.Findings))
	}
	for _, want := range []string{"forwarding loop", "dead end", "points at a down link", "unreachable: all"} {
		if _, ok := findingWith(rep, "reachability", want); !ok {
			t.Fatalf("no %q finding in the broken fabric's report", want)
		}
	}
	var human, js bytes.Buffer
	rep.WriteHuman(&human)
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"testdata/golden_broken_report.txt", human.Bytes()},
		{"testdata/golden_broken_report.jsonl", js.Bytes()},
	} {
		path := filepath.FromSlash(g.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture (run with -update): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			gl, wl := strings.Split(string(g.got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
		}
	}
}

// TestReachabilityCapKeepsReportOrder: under any per-analyzer cap the
// report keeps exactly the first reachability findings of the uncapped
// report, in order, and counts the rest as suppressed — also when one
// leaf alone finds more than the cap.
func TestReachabilityCapKeepsReportOrder(t *testing.T) {
	in := brokenFabric(t)
	reachability := func(rep *verify.Report) []verify.Finding {
		var out []verify.Finding
		for _, f := range rep.Findings {
			if f.Analyzer == "reachability" {
				out = append(out, f)
			}
		}
		return out
	}
	all, err := verify.Run(in, verify.Options{MaxFindings: -1, SkipQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	full := reachability(all)
	if all.Stats.Suppressed != 0 {
		t.Fatalf("uncapped run suppressed %d findings", all.Stats.Suppressed)
	}
	for _, capacity := range []int{1, 2, 5, 64, len(full) - 1, len(full)} {
		rep, err := verify.Run(in, verify.Options{MaxFindings: capacity, SkipQuality: true})
		if err != nil {
			t.Fatal(err)
		}
		got := reachability(rep)
		if !reflect.DeepEqual(got, full[:capacity]) {
			t.Fatalf("cap %d: kept findings are not the uncapped report's first %d", capacity, capacity)
		}
		if want := len(full) - capacity; rep.Stats.Suppressed != want {
			t.Fatalf("cap %d: Suppressed = %d, want %d", capacity, rep.Stats.Suppressed, want)
		}
	}
}
