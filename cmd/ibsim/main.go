// Command ibsim runs a single discrete-event simulation of an m-port n-tree
// InfiniBand network and prints the measured operating point.
//
// Example:
//
//	ibsim -m 8 -n 3 -scheme MLID -pattern centric -load 0.4 -vls 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mlid"
)

// startCPUProfile begins CPU profiling into path ("" disables) and returns a
// stop function.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	fatal(err)
	fatal(pprof.StartCPUProfile(f))
	return func() {
		pprof.StopCPUProfile()
		fatal(f.Close())
	}
}

// writeMemProfile records a heap profile to path ("" disables).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fatal(err)
	runtime.GC() // up-to-date allocation statistics
	fatal(pprof.WriteHeapProfile(f))
	fatal(f.Close())
}

func main() {
	var (
		m         = flag.Int("m", 8, "switch port count (power of two >= 4)")
		n         = flag.Int("n", 2, "tree dimension")
		scheme    = flag.String("scheme", "MLID", "routing scheme: MLID or SLID")
		pattern   = flag.String("pattern", "uniform", "traffic: uniform, centric, bitcomplement, bitreversal, shift")
		hotspot   = flag.Int("hotspot", 0, "hotspot node for the centric pattern")
		load      = flag.Float64("load", 0.3, "offered load in bytes/ns per node (1.0 = link rate)")
		vls       = flag.Int("vls", 1, "data virtual lanes (paper: 1, 2 or 4)")
		pktSize   = flag.Int("packet", 256, "packet size in bytes")
		buf       = flag.Int("buf", 1, "per-VL buffer depth in packets")
		warmup    = flag.Int64("warmup", 100_000, "warmup window in ns")
		measure   = flag.Int64("measure", 300_000, "measurement window in ns")
		seed      = flag.Int64("seed", 1, "random seed")
		selName   = flag.String("select", "rank", "path-selection policy: rank, random, flowspray, adaptive, pktspray")
		reception = flag.String("reception", "ideal", "endnode reception model: ideal or link")
		switching = flag.String("switching", "vct", "switching mode: vct or saf")
		hist      = flag.Bool("hist", false, "print a latency histogram")
		topPorts  = flag.Int("ports", 0, "print the N busiest directed links")
		tracePkts = flag.Int("trace", 0, "print hop-by-hop timelines of the first N packets")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile after the run to this file")
	)
	flag.Parse()

	tree, err := mlid.NewTree(*m, *n)
	fatal(err)
	s, err := mlid.SchemeByName(*scheme)
	fatal(err)
	pat, err := mlid.PatternByName(*pattern, tree.Nodes(), *hotspot)
	fatal(err)
	subnet, err := mlid.Configure(tree, s)
	fatal(err)
	sel, err := mlid.SelectorByName(*selName)
	fatal(err)

	rec := mlid.ReceptionIdeal
	switch *reception {
	case "ideal":
	case "link":
		rec = mlid.ReceptionLink
	default:
		fatal(fmt.Errorf("unknown reception model %q", *reception))
	}
	sw := mlid.SwitchingVCT
	switch *switching {
	case "vct":
	case "saf":
		sw = mlid.SwitchingSAF
	default:
		fatal(fmt.Errorf("unknown switching mode %q", *switching))
	}

	var latHist *mlid.Histogram
	if *hist {
		latHist = mlid.NewHistogram(256, 24)
	}

	stopCPU := startCPUProfile(*cpuProf)
	res, err := mlid.Simulate(mlid.SimConfig{
		Subnet:           subnet,
		Pattern:          pat,
		DataVLs:          *vls,
		PacketSize:       *pktSize,
		BufPackets:       *buf,
		OfferedLoad:      *load,
		WarmupNs:         *warmup,
		MeasureNs:        *measure,
		Reception:        rec,
		Switching:        sw,
		PathSelect:       sel,
		LatencyHist:      latHist,
		CollectPortStats: *topPorts > 0,
		TracePackets:     *tracePkts,
		Seed:             *seed,
	})
	stopCPU()
	writeMemProfile(*memProf)
	fatal(err)

	fmt.Printf("%s, %s scheme, %s traffic, %s selection, %d VL(s), %d-byte packets\n",
		tree, s.Name(), pat.Name(), sel.Name(), *vls, *pktSize)
	fmt.Printf("offered load:      %.4f bytes/ns/node\n", res.OfferedLoad)
	fmt.Printf("accepted traffic:  %.4f bytes/ns/node", res.Accepted)
	switch {
	case res.GeneratedWindow == 0:
		fmt.Printf("  (no packets generated in window)")
	case res.Saturated:
		fmt.Printf("  (saturated)")
	}
	fmt.Println()
	fmt.Printf("mean latency:      %.1f ns\n", res.MeanLatencyNs)
	fmt.Printf("p99 latency:       %.1f ns\n", res.P99LatencyNs)
	fmt.Printf("max latency:       %.1f ns\n", res.MaxLatencyNs)
	fmt.Printf("packets delivered: %d in window (%d total, %d in flight at end)\n",
		res.DeliveredWindow, res.TotalDelivered, res.InFlightAtEnd)
	if res.OutOfOrder >= 0 {
		fmt.Printf("out-of-order:      %d deliveries\n", res.OutOfOrder)
	}
	fmt.Printf("link utilization:  max %.3f, mean %.3f\n", res.MaxLinkUtilization, res.MeanLinkUtilization)
	fmt.Printf("simulator events:  %d over %d ns\n", res.Events, res.EndTime)
	if latHist != nil {
		fmt.Printf("\nlatency distribution (ns):\n%s", latHist.Render(48))
	}
	if *topPorts > 0 {
		fmt.Printf("\nbusiest directed links:\n")
		n := *topPorts
		if n > len(res.PortStats) {
			n = len(res.PortStats)
		}
		for _, ps := range res.PortStats[:n] {
			if ps.IsNode {
				fmt.Printf("  node %-4d injection      util %.3f, %d packets\n", ps.Node, ps.Utilization, ps.Packets)
			} else {
				fmt.Printf("  %-14s port %-3d  util %.3f, %d packets\n",
					tree.SwitchLabel(mlid.SwitchID(ps.Switch)), ps.Port, ps.Utilization, ps.Packets)
			}
		}
	}
	for _, tr := range res.Traces {
		fmt.Printf("\npacket %d: node %d -> node %d (DLID %d, VL %d)\n", tr.Seq, tr.Src, tr.Dst, tr.DLID, tr.VL)
		fmt.Printf("  generated %-8d injected %-8d", tr.GenNs, tr.InjectNs)
		if tr.DeliverNs > 0 {
			fmt.Printf(" delivered %d (latency %d ns)\n", tr.DeliverNs, tr.DeliverNs-tr.GenNs)
		} else {
			fmt.Printf(" still in flight at end\n")
		}
		for _, h := range tr.Hops {
			fmt.Printf("  %-14s arrive %-8d depart %d\n", tree.SwitchLabel(mlid.SwitchID(h.Switch)), h.ArriveNs, h.DepartNs)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsim:", err)
		if errors.Is(err, mlid.ErrLIDSpaceExhausted) {
			fmt.Fprintln(os.Stderr, "ibsim: hint: the SLID scheme, or a smaller tree, fits the 16-bit LID space")
		}
		os.Exit(1)
	}
}
