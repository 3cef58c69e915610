package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// AdaptiveSpec configures the path-selection family study: every pluggable
// selector (rank — the paper's static MLID policy — random, flowspray,
// adaptive, pktspray) runs over the same MLID-routed fabric on workloads
// chosen to separate the policies — a multi-hotspot concentration, the
// class-aligned shuffle (the structural worst case for any static
// source-indexed assignment), the tornado permutation, and an incast — and,
// when FaultRate is
// positive, repeats each point on a persistently degraded fabric: a seeded
// sample of inter-switch links dies before the warmup closes, fault-avoiding
// reselection filters the candidates every selector then chooses among, and
// the reliable transport rides the transient. rank's rows are the paper
// baseline the others are judged against; the degraded rows are where the
// policies structurally separate — rank's cyclic reselection piles every
// displaced flow onto the nearest surviving offset while adaptive balances
// the survivors by measured load.
type AdaptiveSpec struct {
	Network Network
	// DataVLs is the data virtual-lane count.
	DataVLs int
	// OfferedLoad is the per-node injection rate (bytes/ns).
	OfferedLoad float64
	// WarmupNs / MeasureNs size the run window.
	WarmupNs, MeasureNs sim.Time
	// Selectors names the policies to run (sim.SelectorNames order when
	// empty).
	Selectors []string
	// FaultRate, when positive, adds a degraded-fabric variant of every
	// (workload, selector) point: the fraction of inter-switch links that die
	// (persistently) at FaultNs, with fault-avoiding reselection active and
	// the reliable transport on.
	FaultRate float64
	// FaultNs is when the sampled links die — inside the warmup, so the SM
	// has converged when measurement opens and the window sees the steady
	// degraded fabric, not the transient.
	FaultNs sim.Time
	// Transport parameterizes the degraded variant's reliable transport; the
	// zero value takes every default.
	Transport sim.TransportConfig
	// Seed drives the traffic, the fault schedules, and the runs.
	Seed int64
	// HeapOnlyScheduler runs the engine with a 1 ns calendar window, so
	// every future event takes the far heap and migrates in.
	HeapOnlyScheduler bool
}

// AdaptiveStudySpec is the full-fidelity family study on the 8-port 3-tree
// (128 nodes): hot enough that congestion-aware selection has something to
// dodge, with a degraded-fabric axis at a 5% flap rate plus one root kill.
func AdaptiveStudySpec() AdaptiveSpec {
	return AdaptiveSpec{
		Network:     Network{8, 3},
		DataVLs:     2,
		OfferedLoad: 0.6,
		WarmupNs:    50_000, MeasureNs: 200_000,
		FaultRate: 0.05,
		FaultNs:   2_000,
		Transport: sim.TransportConfig{
			BaseTimeoutNs: 150_000, MaxTimeoutNs: 300_000, MaxRetries: 4,
			DrainNs: 1_500_000,
		},
		Seed: 131,
	}
}

// QuickAdaptiveSpec is the reduced-cost variant for test suites and the CI
// smoke: a small fabric and short windows, keeping one faulted point so the
// selector × faults × transport composition stays exercised. The 4-ary
// 3-tree (16 nodes) is the smallest fabric where the class-aligned shuffle
// exists (h^(n-1) = 4 classes over m = 4 groups).
func QuickAdaptiveSpec() AdaptiveSpec {
	return AdaptiveSpec{
		Network:     Network{4, 3},
		DataVLs:     2,
		OfferedLoad: 0.6,
		WarmupNs:    20_000, MeasureNs: 60_000,
		FaultRate: 0.25,
		FaultNs:   2_000,
		Transport: sim.TransportConfig{
			BaseTimeoutNs: 50_000, MaxTimeoutNs: 100_000, MaxRetries: 4,
			DrainNs: 500_000,
		},
		Seed: 131,
	}
}

// AdaptiveRow is one (workload, selector, faulted?) measurement.
type AdaptiveRow struct {
	Workload string
	Selector string
	// Faulted marks the degraded-fabric variant (persistent link sample +
	// transport).
	Faulted bool
	// AcceptedBns is the measured accepted traffic (bytes/ns/node).
	AcceptedBns float64
	// MeanLatencyNs / P99LatencyNs cover window deliveries.
	MeanLatencyNs, P99LatencyNs float64
	// Delivered / Dropped / Failed account the run; Reroutes counts
	// fault-displaced choices, OutOfOrder quantifies spray reordering, and
	// Retransmits the transport's recovery traffic (faulted rows only).
	Delivered, Dropped, Failed        int64
	Reroutes, OutOfOrder, Retransmits int64
}

// classShuffle builds the class-aligned adversarial permutation for the
// static rank policy. For cross-group traffic (gcp length 0) the canonical
// MLID offset of a source is Rank(src, 1) = src mod h^(n-1) — a function of
// the source alone — so every member of an offset class c ascends to the
// same root switch for all of its distant traffic. The permutation sends the
// entire class into one destination group G = c mod m: under rank those m-1
// cross-group flows converge on that root's single down-link toward G, a
// worst-case static collision the paper's assignment cannot see; selectors
// that randomize or measure load spread the class across the h^(n-1) roots
// and restore near-full throughput. The construction maps one source per
// class to itself; those are deranged among each other so Dest never
// consults the RNG. It requires h^(n-1) to be a multiple of m (true for
// FT(8,3) and FT(4,3); the caller skips the workload otherwise).
func classShuffle(tr *topology.Tree) (traffic.PermutationPattern, bool) {
	nodes, m := tr.Nodes(), tr.M()
	classes := nodes / m // h^(n-1) offset classes, one member per group
	if classes%m != 0 {
		return traffic.PermutationPattern{}, false
	}
	perm := make([]int, nodes)
	var fixed []int
	for src := range perm {
		g, c := src/classes, src%classes
		dst := (c%m)*classes + (c/m)*m + g
		if dst == src {
			fixed = append(fixed, src)
		}
		perm[src] = dst
	}
	for i, src := range fixed {
		perm[src] = fixed[(i+1)%len(fixed)]
	}
	return traffic.PermutationPattern{Label: "shuffle", Perm: perm}, true
}

// adaptiveWorkloads are the study's traffic patterns: a four-way hotspot
// (half of every source's traffic into four hot sinks on distinct leaves),
// the class-aligned shuffle permutation (the static policy's structural
// worst case), the tornado permutation, and a two-sink incast at 90%
// concentration.
func adaptiveWorkloads(tr *topology.Tree) []struct {
	name string
	pat  traffic.Pattern
} {
	nodes := tr.Nodes()
	leaf := tr.M() / 2
	spread := func(k int) []int {
		hs := make([]int, k)
		for i := range hs {
			hs[i] = (i * leaf * (nodes / (k * leaf))) % nodes
		}
		return hs
	}
	ws := []struct {
		name string
		pat  traffic.Pattern
	}{
		{"hotspot", traffic.MultiHotspot{Nodes: nodes, Hotspots: spread(4), Fraction: 0.5}},
	}
	if shuffle, ok := classShuffle(tr); ok {
		ws = append(ws, struct {
			name string
			pat  traffic.Pattern
		}{"shuffle", shuffle})
	}
	return append(ws, []struct {
		name string
		pat  traffic.Pattern
	}{
		{"tornado", traffic.Tornado(nodes)},
		{"incast", traffic.MultiHotspot{Nodes: nodes, Hotspots: spread(2), Fraction: 0.9}},
	}...)
}

// AdaptiveStudy runs the family study. Every selector of a (workload,
// faulted?) block runs the identical subnet, traffic, seed, and (for faulted
// blocks) fault schedule, so rows within a block differ only by policy. The
// runner asserts packet conservation after every run.
func AdaptiveStudy(spec AdaptiveSpec) ([]AdaptiveRow, error) {
	tr, err := topology.New(spec.Network.M, spec.Network.N)
	if err != nil {
		return nil, err
	}
	sn, err := (&ib.SubnetManager{Tree: tr, Engine: core.NewMLID()}).Configure()
	if err != nil {
		return nil, fmt.Errorf("experiment: MLID on %s: %w", spec.Network, err)
	}
	names := spec.Selectors
	if len(names) == 0 {
		names = sim.SelectorNames()
	}
	selectors := make([]sim.Selector, len(names))
	for i, name := range names {
		if selectors[i], err = sim.SelectorByName(name); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}
	var rows []AdaptiveRow
	for wi, w := range adaptiveWorkloads(tr) {
		variants := []bool{false}
		if spec.FaultRate > 0 {
			variants = append(variants, true)
		}
		for _, faulted := range variants {
			var plan *sim.FaultPlan
			var transport *sim.TransportConfig
			if faulted {
				// One seeded link sample per workload, shared by every
				// selector, dead from FaultNs for the rest of the run.
				rng := rand.New(rand.NewSource(spec.Seed*6961 + int64(wi)))
				plan = &sim.FaultPlan{Reselect: true}
				for _, l := range degradedSample(tr, spec.FaultRate, rng) {
					plan.Faults = append(plan.Faults, sim.LinkFault{
						Switch: l[0], Port: int(l[1]), DownNs: spec.FaultNs,
					})
				}
				tc := spec.Transport
				transport = &tc
			}
			for si, sel := range selectors {
				res, err := sim.Run(sim.Config{
					Subnet:            sn,
					Pattern:           w.pat,
					DataVLs:           spec.DataVLs,
					OfferedLoad:       spec.OfferedLoad,
					WarmupNs:          spec.WarmupNs,
					MeasureNs:         spec.MeasureNs,
					PathSelect:        sel,
					FaultPlan:         plan,
					Transport:         transport,
					VerifyEpochs:      faulted,
					Seed:              spec.Seed + int64(wi),
					HeapOnlyScheduler: spec.HeapOnlyScheduler,
				})
				if err != nil {
					return nil, fmt.Errorf("experiment: adaptive study %s/%s: %w", w.name, names[si], err)
				}
				unaccounted := res.TotalGenerated - res.TotalDelivered - res.InFlightAtEnd
				if faulted {
					unaccounted -= res.Failed
				} else {
					unaccounted -= res.DroppedTotal
				}
				if unaccounted != 0 {
					return nil, fmt.Errorf("experiment: adaptive study %s/%s: %d packets unaccounted",
						w.name, names[si], unaccounted)
				}
				rows = append(rows, AdaptiveRow{
					Workload:      w.name,
					Selector:      names[si],
					Faulted:       faulted,
					AcceptedBns:   res.Accepted,
					MeanLatencyNs: res.MeanLatencyNs,
					P99LatencyNs:  res.P99LatencyNs,
					Delivered:     res.TotalDelivered,
					Dropped:       res.DroppedTotal,
					Failed:        res.Failed,
					Reroutes:      res.Reroutes,
					OutOfOrder:    res.OutOfOrder,
					Retransmits:   res.Retransmits,
				})
			}
		}
	}
	return rows, nil
}

// FormatAdaptive renders the rows as a markdown table.
func FormatAdaptive(rows []AdaptiveRow) string {
	var b strings.Builder
	b.WriteString("| workload | selector | faults | accepted (B/ns/node) | mean (ns) | p99 (ns) | delivered | dropped | failed | reroutes | out-of-order | rexmit |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		faults := "—"
		if r.Faulted {
			faults = "chaos"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.4f | %.0f | %.0f | %d | %d | %d | %d | %d | %d |\n",
			r.Workload, r.Selector, faults, r.AcceptedBns, r.MeanLatencyNs, r.P99LatencyNs,
			r.Delivered, r.Dropped, r.Failed, r.Reroutes, r.OutOfOrder, r.Retransmits)
	}
	return b.String()
}

// AdaptiveCSV renders the rows in long form.
func AdaptiveCSV(rows []AdaptiveRow) string {
	var b strings.Builder
	b.WriteString("workload,selector,faulted,accepted_bns,mean_latency_ns,p99_latency_ns,delivered,dropped,failed,reroutes,out_of_order,retransmits\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%t,%.6f,%.2f,%.2f,%d,%d,%d,%d,%d,%d\n",
			r.Workload, r.Selector, r.Faulted, r.AcceptedBns, r.MeanLatencyNs, r.P99LatencyNs,
			r.Delivered, r.Dropped, r.Failed, r.Reroutes, r.OutOfOrder, r.Retransmits)
	}
	return b.String()
}
