package sim

import (
	"reflect"
	"testing"

	"mlid/internal/core"
	"mlid/internal/traffic"
)

// determinismMatrixCases are the configurations the engine must reproduce
// bit-for-bit on both scheduler paths and across runs: plain uniform traffic,
// a hotspot, a live fault plan with SM repair and source reselection, the
// reliable transport riding over a mid-run outage (retransmits, ACK/NAK
// control traffic, exhausted-budget failures), and the pluggable selectors.
func determinismMatrixCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	mlid82 := mustSubnet(t, 8, 2, core.NewMLID())
	slid82 := mustSubnet(t, 8, 2, core.NewSLID())
	return []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 40_000,
			SeriesIntervalNs: 10_000, CollectPortStats: true, Seed: 7,
		}},
		{"hotspot", Config{
			Subnet: mlid82, Pattern: traffic.Centric{Nodes: mlid82.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
			DataVLs: 4, OfferedLoad: 0.6, WarmupNs: 10_000, MeasureNs: 40_000,
			Switching: SwitchingSAF, Reception: ReceptionLink, Seed: 3,
		}},
		{"faults-reselect", Config{
			Subnet: slid82, Pattern: traffic.Uniform{Nodes: slid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.4, WarmupNs: 10_000, MeasureNs: 40_000,
			SeriesIntervalNs: 10_000, Seed: 11,
			FaultPlan: &FaultPlan{
				Faults: []LinkFault{
					{Switch: 0, Port: 1, DownNs: 12_000, UpNs: 32_000},
					{Switch: 9, Port: 3, DownNs: 18_000},
				},
				Reselect: true,
			},
			// Epoch verification counters land in the Result, so DeepEqual
			// also proves the hook is deterministic.
			VerifyEpochs: true,
		}},
		{"transport-fault", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 5_000, MeasureNs: 25_000,
			Seed: 19,
			FaultPlan: &FaultPlan{
				Faults: []LinkFault{{Switch: 2, Port: 0, DownNs: 8_000, UpNs: 20_000}},
			},
			VerifyEpochs: true,
			Transport:    &TransportConfig{MaxRetries: 2, DrainNs: 120_000},
		}},
		// The pluggable selectors: flowspray pins per-flow choices in the
		// selState array, adaptive reads the congestion view of the
		// source's leaf-switch ports, and pktspray keys its rotation on the
		// flow sequence.
		{"flowspray", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 40_000,
			PathSelect: SelectFlowSpray(), Seed: 23,
		}},
		{"adaptive-faults", Config{
			Subnet: mlid82, Pattern: traffic.Centric{Nodes: mlid82.Tree.Nodes(), Hotspot: 5, Fraction: 0.4},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 40_000,
			SeriesIntervalNs: 10_000, PathSelect: SelectAdaptive(), Seed: 29,
			FaultPlan: &FaultPlan{
				Faults:   []LinkFault{{Switch: 4, Port: 4, DownNs: 15_000, UpNs: 35_000}},
				Reselect: true,
			},
			VerifyEpochs: true,
		}},
		{"pktspray-transport-fault", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 5_000, MeasureNs: 25_000,
			PathSelect: SelectPktSpray(), Seed: 31,
			FaultPlan: &FaultPlan{
				Faults:   []LinkFault{{Switch: 2, Port: 0, DownNs: 8_000, UpNs: 20_000}},
				Reselect: true,
			},
			VerifyEpochs: true,
			Transport:    &TransportConfig{MaxRetries: 2, DrainNs: 120_000},
		}},
	}
}

// TestShardDeterminismMatrix (named for the lane-count comparison it once
// also ran) asserts, for every matrix configuration, bit-identical results
// between the calendar and heap-only scheduler paths.
func TestShardDeterminismMatrix(t *testing.T) {
	for _, tc := range determinismMatrixCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			run := func(heapOnly bool) Result {
				cfg := tc.cfg
				cfg.HeapOnlyScheduler = heapOnly
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("heapOnly=%t: %v", heapOnly, err)
				}
				return res
			}
			base := run(false)
			if base.TotalDelivered == 0 {
				t.Fatal("baseline delivered nothing")
			}
			if got := run(true); !reflect.DeepEqual(base, got) {
				t.Errorf("heap-only scheduler diverges from the calendar\n base: %s\n got:  %s",
					fingerprint(base), fingerprint(got))
			}
		})
	}
}

// TestShardDeterminismRepeated runs every matrix configuration twice: the
// engine must not carry state or nondeterminism from one run into the next.
func TestShardDeterminismRepeated(t *testing.T) {
	for _, tc := range determinismMatrixCases(t) {
		run := func() Result {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return res
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same config, different results:\n a: %s\n b: %s",
				tc.name, fingerprint(a), fingerprint(b))
		}
	}
}
