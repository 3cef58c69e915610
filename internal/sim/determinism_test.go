package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

// goldenCases are the configurations whose results are pinned bit-for-bit in
// testdata/golden_results.txt. The fixtures were recorded under the original
// container/heap closure engine; the typed-event calendar-queue engine must
// reproduce them exactly — any drift in event ordering shows up here.
func goldenCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	uni42 := mustSubnet(t, 4, 2, core.NewMLID())
	slid82 := mustSubnet(t, 8, 2, core.NewSLID())
	mlid82 := mustSubnet(t, 8, 2, core.NewMLID())
	return []struct {
		name string
		cfg  Config
	}{
		{"mlid-4x2-uniform-vl2", Config{
			Subnet: uni42, Pattern: traffic.Uniform{Nodes: uni42.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.4, WarmupNs: 10_000, MeasureNs: 60_000, Seed: 7,
		}},
		{"slid-8x2-centric-vl1", Config{
			Subnet: slid82, Pattern: traffic.Centric{Nodes: slid82.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
			OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 50_000, Seed: 3,
		}},
		{"mlid-8x2-uniform-vl4-saf", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 4, OfferedLoad: 0.6, WarmupNs: 10_000, MeasureNs: 50_000,
			Switching: SwitchingSAF, Reception: ReceptionLink, Seed: 11,
		}},
		{"mlid-4x2-lowload-heapgen", Config{
			// Interarrival 256/0.04 = 6400 ns exceeds the calendar horizon, so
			// generation events take the far-heap path on the new engine.
			Subnet: uni42, Pattern: traffic.Uniform{Nodes: uni42.Tree.Nodes()},
			OfferedLoad: 0.04, WarmupNs: 10_000, MeasureNs: 80_000, Seed: 19,
		}},
	}
}

// fingerprint compacts a Result into a stable, human-diffable line set.
func fingerprint(r Result) string {
	return fmt.Sprintf(
		"accepted=%.9f mean_lat=%.6f p99=%.6f max=%.6f net_lat=%.6f "+
			"delivered=%d generated=%d total_del=%d total_gen=%d inflight=%d "+
			"events=%d end=%d ooo=%d max_util=%.9f mean_util=%.9f",
		r.Accepted, r.MeanLatencyNs, r.P99LatencyNs, r.MaxLatencyNs, r.MeanNetLatencyNs,
		r.DeliveredWindow, r.GeneratedWindow, r.TotalDelivered, r.TotalGenerated, r.InFlightAtEnd,
		r.Events, r.EndTime, r.OutOfOrder, r.MaxLinkUtilization, r.MeanLinkUtilization)
}

// TestGoldenDeterminism pins simulation results against fixtures recorded
// before the engine rewrite. Run with -update to re-record.
func TestGoldenDeterminism(t *testing.T) {
	var lines []string
	for _, tc := range goldenCases(t) {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines = append(lines, tc.name+": "+fingerprint(res))
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "golden_results.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("results drifted from recorded fixtures\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunDeterminism requires a config to produce an identical Result
// field-by-field when run twice, on both scheduler paths: the default
// calendar window and the heap-only 1 ns window (Config.HeapOnlyScheduler).
func TestRunDeterminism(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	cfg := Config{
		Subnet:  sn,
		Pattern: traffic.Centric{Nodes: sn.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
		DataVLs: 2, OfferedLoad: 0.5,
		WarmupNs: 10_000, MeasureNs: 50_000,
		TracePackets: 4, SeriesIntervalNs: 10_000,
		CollectPortStats: true, Seed: 5,
	}
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
		t.Errorf("same config, different results:\n a: %+v\n b: %+v", a, b)
	}
	heapOnly := run(true)
	if !reflect.DeepEqual(a, heapOnly) {
		t.Errorf("calendar and heap-only scheduler paths disagree:\n cal:  %s\n heap: %s",
			fingerprint(a), fingerprint(heapOnly))
	}
}

// TestBatchDeterminism does the same for the closed-workload runner.
func TestBatchDeterminism(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	bc := BatchConfig{
		Subnet:   sn,
		Messages: Gather(sn.Tree, 0, 2048),
		DataVLs:  2,
		Seed:     9,
	}
	run := func(heapOnly bool) BatchResult {
		res, err := runBatch(bc, heapOnly)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(false)
	if a != b {
		t.Errorf("same batch config, different results:\n a: %+v\n b: %+v", a, b)
	}
	heapOnly := run(true)
	if a != heapOnly {
		t.Errorf("calendar and heap-only scheduler paths disagree:\n cal:  %+v\n heap: %+v", a, heapOnly)
	}
}

var _ = topology.MustNew // keep import while cases evolve
