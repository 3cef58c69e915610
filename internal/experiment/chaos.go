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

// ChaosSpec describes a seeded chaos campaign: reproducible link-flap
// schedules (plus optional whole-switch kills) generated from a seed and
// swept over fault rates, run for both routing schemes with the reliable
// transport on. The campaign quantifies how MLID's path diversity shortens
// recovery tails: retransmissions re-enter path selection, so an MLID source
// steers each retry onto a surviving LID while a SLID source repeats its
// single path until the fabric heals or the retry budget runs out.
type ChaosSpec struct {
	Network Network
	// DataVLs is the data virtual-lane count (the transport adds one
	// management VL on top).
	DataVLs int
	// OfferedLoad is the per-node injection rate (bytes/ns).
	OfferedLoad float64
	// WarmupNs / MeasureNs size the run window.
	WarmupNs, MeasureNs sim.Time
	// SeriesIntervalNs bins the transient view.
	SeriesIntervalNs sim.Time
	// FaultRates are the fractions of inter-switch links to flap per
	// campaign; one pair of (SLID, MLID) rows is produced per rate.
	FaultRates []float64
	// MinDownNs / MaxDownNs bound each flap's outage duration.
	MinDownNs, MaxDownNs sim.Time
	// SwitchKills is the number of root switches killed (and later revived)
	// per campaign, on top of the link flaps.
	SwitchKills int
	// Transport parameterizes the reliable transport; the zero value takes
	// every default.
	Transport sim.TransportConfig
	// Seed drives both the fault-schedule generation and the runs; the same
	// seed reproduces the same campaign bit for bit.
	Seed int64
	// HeapOnlyScheduler runs the engine with a 1 ns calendar window, so
	// every future event takes the far heap and migrates in; the
	// determinism soak diffs it against the default window.
	HeapOnlyScheduler bool
}

// ChaosStudySpec is the full-fidelity chaos campaign configuration. The
// retransmit timer is sized above the longest flap (80us): a packet parked
// behind a flapped link by credit backpressure is delivered on revival, so a
// timeout shorter than the outages the campaign rides through would
// retransmit merely-stalled packets and feed the very congestion that
// stalled them. Sized this way, retransmissions track real losses — which
// is what the SLID-versus-MLID comparison is about.
func ChaosStudySpec() ChaosSpec {
	return ChaosSpec{
		Network:     Network{8, 3},
		DataVLs:     2,
		OfferedLoad: 0.3,
		WarmupNs:    50_000, MeasureNs: 300_000,
		SeriesIntervalNs: 10_000,
		FaultRates:       []float64{0.02, 0.05, 0.10},
		MinDownNs:        20_000, MaxDownNs: 80_000,
		SwitchKills: 1,
		Transport: sim.TransportConfig{
			BaseTimeoutNs: 150_000, MaxTimeoutNs: 300_000, MaxRetries: 4,
			DrainNs: 1_500_000,
		},
		Seed: 99,
	}
}

// QuickChaosSpec is a reduced-cost variant for test suites and the CI soak:
// a small fabric, short windows, and a trimmed retry budget so the drain
// stays cheap. As in ChaosStudySpec, the base timeout sits above the longest
// flap (40us) so the timer fires for lost packets, not for packets parked
// behind a flapping link. The qualitative contrast — MLID retransmits less
// and recovers faster than SLID — is preserved.
func QuickChaosSpec() ChaosSpec {
	return ChaosSpec{
		Network:     Network{4, 2},
		DataVLs:     2,
		OfferedLoad: 0.3,
		WarmupNs:    20_000, MeasureNs: 100_000,
		SeriesIntervalNs: 5_000,
		FaultRates:       []float64{0.10, 0.25},
		MinDownNs:        10_000, MaxDownNs: 40_000,
		SwitchKills: 0,
		Transport: sim.TransportConfig{
			BaseTimeoutNs: 50_000, MaxTimeoutNs: 100_000, MaxRetries: 4,
			DrainNs: 500_000,
		},
		Seed: 99,
	}
}

// ChaosRow is one (scheme, fault rate) campaign outcome.
type ChaosRow struct {
	Scheme    string
	FaultRate float64
	// Flaps / SwitchKills are the schedule's realized event counts.
	Flaps, SwitchKills int
	// Conservation: Generated = Delivered + Failed + InFlight, checked by
	// the runner after every campaign.
	Generated, Delivered, Failed, InFlight int64
	// Retransmits / Dropped / DupDeliveries count the recovery traffic;
	// AcksSent/NaksSent/CtrlBytes its acknowledgment overhead.
	Retransmits, Dropped, DupDeliveries int64
	AcksSent, NaksSent, CtrlBytes       int64
	// MeanLatencyNs and the p99/p999 tails cover window deliveries; the
	// tails are where retransmission delays surface.
	MeanLatencyNs, P99LatencyNs, P999LatencyNs float64
	// LastRecoveredNs is the time of the last accepted retransmission —
	// the campaign's time-to-last-recovered-delivery.
	LastRecoveredNs sim.Time
}

// chaosPlan generates the seeded fault schedule for one campaign: SwitchKills
// distinct root switches die and revive, and rate×(remaining inter-switch
// links) flap, each with a random onset inside the first three quarters of
// the measurement window and a random duration in [MinDownNs, MaxDownNs].
// Kills are chosen first and their incident links excluded from the flap
// candidates, so the schedule always passes FaultPlan validation. The same
// rng state yields the same schedule.
func chaosPlan(tr *topology.Tree, spec ChaosSpec, rate float64, rng *rand.Rand) *sim.FaultPlan {
	plan := &sim.FaultPlan{Reselect: true}
	killed := make(map[int32]bool)
	var roots []int32
	for sw := 0; sw < tr.Switches(); sw++ {
		if tr.IsRoot(topology.SwitchID(sw)) {
			roots = append(roots, int32(sw))
		}
	}
	kills := spec.SwitchKills
	if kills > len(roots) {
		kills = len(roots)
	}
	onset := func() (down, up sim.Time) {
		window := spec.MeasureNs * 3 / 4
		down = spec.WarmupNs + sim.Time(rng.Int63n(int64(window)))
		dur := spec.MinDownNs
		if spread := spec.MaxDownNs - spec.MinDownNs; spread > 0 {
			dur += sim.Time(rng.Int63n(int64(spread + 1)))
		}
		return down, down + dur
	}
	for _, i := range rng.Perm(len(roots))[:kills] {
		down, up := onset()
		plan.SwitchFaults = append(plan.SwitchFaults, sim.SwitchFault{
			Switch: roots[i], DownNs: down, UpNs: up,
		})
		killed[roots[i]] = true
	}
	// Candidate flap links: every inter-switch link once (canonical side:
	// the lower switch ID), excluding links of killed switches.
	type link struct {
		sw   int32
		port int
	}
	var candidates []link
	for sw := 0; sw < tr.Switches(); sw++ {
		for port := 0; port < tr.M(); port++ {
			ref := tr.SwitchNeighbor(topology.SwitchID(sw), port)
			if ref.Kind != topology.KindSwitch || int32(ref.Switch) < int32(sw) {
				continue
			}
			if killed[int32(sw)] || killed[int32(ref.Switch)] {
				continue
			}
			candidates = append(candidates, link{int32(sw), port})
		}
	}
	flaps := int(rate*float64(len(candidates)) + 0.5)
	if flaps < 1 {
		flaps = 1
	}
	if flaps > len(candidates) {
		flaps = len(candidates)
	}
	for _, i := range rng.Perm(len(candidates))[:flaps] {
		down, up := onset()
		plan.Faults = append(plan.Faults, sim.LinkFault{
			Switch: candidates[i].sw, Port: candidates[i].port, DownNs: down, UpNs: up,
		})
	}
	return plan
}

// ChaosStudy runs the chaos campaign for both schemes across the spec's
// fault rates. Each (rate) index derives its own fault schedule from the
// seed; both schemes run the identical schedule and simulation seed, so
// their rows are directly comparable. The runner asserts the conservation
// identity generated = delivered + failed + in-flight after every campaign
// and fails loudly if any packet went silently missing.
func ChaosStudy(spec ChaosSpec) ([]ChaosRow, error) {
	tr, err := topology.New(spec.Network.M, spec.Network.N)
	if err != nil {
		return nil, err
	}
	// One schedule per rate, shared by both schemes; one pristine
	// configuration per scheme, shared read-only by every rate (chaos runs
	// always carry a FaultPlan, so the simulator clones the tables).
	plans := make([]*sim.FaultPlan, len(spec.FaultRates))
	for ri, rate := range spec.FaultRates {
		if rate <= 0 || rate > 1 {
			return nil, fmt.Errorf("experiment: chaos fault rate %v out of (0, 1]", rate)
		}
		rng := rand.New(rand.NewSource(spec.Seed*7919 + int64(ri)))
		plans[ri] = chaosPlan(tr, spec, rate, rng)
	}
	schemes := []core.Scheme{core.NewSLID(), core.NewMLID()}
	pristine := make([]*ib.Subnet, len(schemes))
	for i, scheme := range schemes {
		sn, err := (&ib.SubnetManager{Tree: tr, Engine: scheme}).Configure()
		if err != nil {
			return nil, fmt.Errorf("experiment: %s on %s: %w", scheme.Name(), spec.Network, err)
		}
		pristine[i] = sn
	}

	// One sweep point per (rate, scheme), rate-major — the serial row order.
	points := len(spec.FaultRates) * len(schemes)
	return campaignRun(points, campaignWorkers(points), func(pt int) (ChaosRow, error) {
		ri := pt / len(schemes)
		rate := spec.FaultRates[ri]
		plan := plans[ri]
		scheme := schemes[pt%len(schemes)]
		tc := spec.Transport
		res, err := sim.Run(sim.Config{
			Subnet:           pristine[pt%len(schemes)],
			Pattern:          traffic.Uniform{Nodes: tr.Nodes()},
			DataVLs:          spec.DataVLs,
			OfferedLoad:      spec.OfferedLoad,
			WarmupNs:         spec.WarmupNs,
			MeasureNs:        spec.MeasureNs,
			SeriesIntervalNs: spec.SeriesIntervalNs,
			FaultPlan:        plan,
			Transport:        &tc,
			// Statically verify the forwarding tables at every SM epoch
			// of every campaign: a chaos schedule that drives the repair
			// logic into a loop, credit-cycle, or unexplained dead end
			// fails the study instead of silently dropping packets.
			VerifyEpochs:      true,
			Seed:              spec.Seed + int64(ri),
			HeapOnlyScheduler: spec.HeapOnlyScheduler,
		})
		if err != nil {
			return ChaosRow{}, fmt.Errorf("experiment: chaos run %s rate %v: %w", scheme.Name(), rate, err)
		}
		if got := res.TotalDelivered + res.Failed + res.InFlightAtEnd; got != res.TotalGenerated {
			return ChaosRow{}, fmt.Errorf(
				"experiment: chaos conservation violated (%s rate %v): delivered %d + failed %d + in-flight %d != generated %d",
				scheme.Name(), rate, res.TotalDelivered, res.Failed, res.InFlightAtEnd, res.TotalGenerated)
		}
		return ChaosRow{
			Scheme:          scheme.Name(),
			FaultRate:       rate,
			Flaps:           len(plan.Faults),
			SwitchKills:     len(plan.SwitchFaults),
			Generated:       res.TotalGenerated,
			Delivered:       res.TotalDelivered,
			Failed:          res.Failed,
			InFlight:        res.InFlightAtEnd,
			Retransmits:     res.Retransmits,
			Dropped:         res.DroppedTotal,
			DupDeliveries:   res.DupDeliveries,
			AcksSent:        res.AcksSent,
			NaksSent:        res.NaksSent,
			CtrlBytes:       res.CtrlBytesSent,
			MeanLatencyNs:   res.MeanLatencyNs,
			P99LatencyNs:    res.P99LatencyNs,
			P999LatencyNs:   res.P999LatencyNs,
			LastRecoveredNs: res.LastRecoveredNs,
		}, nil
	})
}

// FormatChaos renders the chaos rows as a markdown table.
func FormatChaos(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("| scheme | rate | flaps | kills | generated | delivered | failed | in-flight | rexmit | dropped | dups | acks | naks | mean (ns) | p99 (ns) | p999 (ns) | last recovery (ns) |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.2f | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %.0f | %.0f | %.0f | %d |\n",
			r.Scheme, r.FaultRate, r.Flaps, r.SwitchKills,
			r.Generated, r.Delivered, r.Failed, r.InFlight,
			r.Retransmits, r.Dropped, r.DupDeliveries, r.AcksSent, r.NaksSent,
			r.MeanLatencyNs, r.P99LatencyNs, r.P999LatencyNs, r.LastRecoveredNs)
	}
	return b.String()
}

// ChaosCSV renders the chaos rows in long form.
func ChaosCSV(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("scheme,fault_rate,flaps,switch_kills,generated,delivered,failed,in_flight,retransmits,dropped,dup_deliveries,acks_sent,naks_sent,ctrl_bytes,mean_latency_ns,p99_latency_ns,p999_latency_ns,last_recovered_ns\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.2f,%.2f,%.2f,%d\n",
			r.Scheme, r.FaultRate, r.Flaps, r.SwitchKills,
			r.Generated, r.Delivered, r.Failed, r.InFlight,
			r.Retransmits, r.Dropped, r.DupDeliveries, r.AcksSent, r.NaksSent, r.CtrlBytes,
			r.MeanLatencyNs, r.P99LatencyNs, r.P999LatencyNs, r.LastRecoveredNs)
	}
	return b.String()
}
