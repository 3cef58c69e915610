package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricSpec declares one metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd lists the end-to-end metrics --trace 0 reports on every
// workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the per-layer metrics --trace 1 reports on every workload;
// a layer the workload does not call reads 0.
var perLayer = []metricSpec{
	{"topology.new_ms", "ms", "lower"},
	{"ib.configure_ms", "ms", "lower"},
	{"ib.lft_entries", "count", "lower"},
	{"ib.configure_ns_per_entry", "ns", "lower"},
	{"sm.mad_configure_ms", "ms", "lower"},
	{"sm.smps", "count", "lower"},
	{"sm.us_per_smp", "us", "lower"},
	{"core.dirty_us_p50", "us", "lower"},
	{"core.repair_us_p50", "us", "lower"},
	{"core.repair_us_p90", "us", "lower"},
	{"core.dirty_switches", "count", "lower"},
	{"core.delta_entries", "count", "lower"},
	{"core.repair_ns_per_entry", "ns", "lower"},
	{"verify.run_ms", "ms", "lower"},
	{"verify.routes_checked", "count", "higher"},
	{"verify.dependencies", "count", "higher"},
	{"verify.ns_per_route", "ns", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.packets", "count", "higher"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.events_per_packet", "ratio", "lower"},
	{"sim.delivered_ratio", "ratio", "higher"},
	{"sim.retransmits", "count", "lower"},
	{"sim.tx_failed", "count", "lower"},
	{"sim.traps_lost", "count", "lower"},
	{"sim.smp_retries", "count", "lower"},
	{"sim.lft_updates", "count", "lower"},
	{"experiment.figure_ms", "ms", "lower"},
	{"experiment.points_per_s", "1/s", "higher"},
	{"experiment.smstudy_ms", "ms", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.untraced_wall_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

func named(specs []metricSpec, values map[string]float64) []metric {
	out := make([]metric, len(specs))
	for i, s := range specs {
		out[i] = metric{s.name, values[s.name], s.unit}
	}
	return out
}

// endToEndMetrics: medians over the timed iterations, plus the median
// set-up pass and the process's peak resident set before the checks.
func endToEndMetrics(r *result) []metric {
	var wall, alloc []float64
	for _, it := range r.iters {
		wall = append(wall, float64(it.ns)/1e9)
		alloc = append(alloc, float64(it.allocBytes)/1e6)
	}
	return named(endToEnd, map[string]float64{
		"setup_s":     median(ns64(r.setupNs)) / 1e9,
		"wall_s":      median(wall),
		"ops_per_s":   opsPerSecond(r),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": r.peakRSS / 1e6,
	})
}

// opsPerSecond is the median over iterations of the work units done per
// host second.
func opsPerSecond(r *result) float64 {
	var rate []float64
	for _, it := range r.iters {
		ns := it.workNs
		if ns == 0 {
			ns = it.ns
		}
		rate = append(rate, float64(it.work)/(float64(ns)/1e9))
	}
	return median(rate)
}

// workloadMetrics are the figures a workload's users read that exist on it
// alone; they are printed but not part of the JSON result.
func workloadMetrics(w workload, r *result) []metric {
	var out []metric
	switch w := w.(type) {
	case *bigrun, *faults:
		out = append(out, metric{"pkts_per_s", opsPerSecond(r), "1/s"})
	case *figures:
		out = append(out, metric{"pkts_per_s", opsPerSecond(r), "1/s"},
			metric{"mlid_over_slid", w.ratio, "ratio"})
	case *control:
		// The fabrics' episode costs differ by an order of magnitude, so
		// each gets its own percentiles.
		for fi, fs := range w.specs {
			var eps []float64
			for _, it := range r.iters {
				eps = append(eps, ns64(it.episodes[fi])...)
			}
			label := fmt.Sprintf("(%dx%d_%s)", fs.m, fs.n, fs.scheme)
			out = append(out, metric{"episodes" + label, float64(len(eps)), "count"},
				metric{"reconverge_us_p50" + label, quantile(eps, 0.5) / 1e3, "us"},
				metric{"reconverge_us_p90" + label, quantile(eps, 0.9) / 1e3, "us"})
		}
	}
	return out
}

// perLayerMetrics derives the per-layer metrics from the spans: topology
// and ib from the set-up passes, the rest from the traced iterations. Each
// is the median over passes of the pass's total, except the per-call
// percentiles, which pool every call.
func perLayerMetrics(r *result) []metric {
	spans := r.tracer.spans
	self := selfTimes(spans)
	setup, iters := passes(spans, "setup"), passes(spans, "iteration")

	// perPass totals a span name's self time (key "") or one of its counts
	// over each pass, and takes the median.
	perPass := func(ps [][]int, name, key string) float64 {
		var xs []float64
		for _, p := range ps {
			var sum float64
			for _, i := range p {
				if spans[i].Name != name && name != "" {
					continue
				}
				if key == "" {
					sum += float64(self[i])
				} else {
					sum += float64(spans[i].Counts[key])
				}
			}
			xs = append(xs, sum)
		}
		return median(xs)
	}
	// The control fabrics' calls differ twentyfold in cost, and pooled
	// percentiles would fall between them. calls keeps the traced calls
	// under the first fabric's episodes (FT(8,4) MLID at full size).
	firstEpisode := ""
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "episode ") {
			firstEpisode = s.Name
			break
		}
	}
	calls := func(name string) []float64 {
		var xs []float64
		for _, p := range iters {
			for _, i := range p {
				if s := spans[i]; s.Name == name && s.Parent >= 0 && spans[s.Parent].Name == firstEpisode {
					xs = append(xs, float64(self[i]))
				}
			}
		}
		return xs
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v := map[string]float64{}
	v["topology.new_ms"] = perPass(setup, "topology.NewTree", "") / 1e6
	confNs := perPass(setup, "ib.Configure", "")
	v["ib.configure_ms"] = confNs / 1e6
	v["ib.lft_entries"] = perPass(setup, "ib.Configure", "lft_entries")
	v["ib.configure_ns_per_entry"] = ratio(confNs, v["ib.lft_entries"])

	madNs := perPass(iters, "sm.ConfigureViaMAD", "")
	v["sm.mad_configure_ms"] = madNs / 1e6
	v["sm.smps"] = perPass(iters, "sm.ConfigureViaMAD", "smps")
	v["sm.us_per_smp"] = ratio(madNs/1e3, v["sm.smps"])

	repair := calls("core.RepairIncremental")
	v["core.dirty_us_p50"] = quantile(calls("core.DirtySwitches"), 0.5) / 1e3
	v["core.repair_us_p50"] = quantile(repair, 0.5) / 1e3
	v["core.repair_us_p90"] = quantile(repair, 0.9) / 1e3
	v["core.dirty_switches"] = perPass(iters, "core.DirtySwitches", "dirty_switches")
	v["core.delta_entries"] = perPass(iters, "core.RepairIncremental", "delta_entries")
	v["core.repair_ns_per_entry"] = ratio(perPass(iters, "core.RepairIncremental", ""), v["core.delta_entries"])

	verNs := perPass(iters, "verify.Run", "")
	v["verify.run_ms"] = verNs / 1e6
	v["verify.routes_checked"] = perPass(iters, "verify.Run", "routes")
	v["verify.dependencies"] = perPass(iters, "verify.Run", "dependencies")
	v["verify.ns_per_route"] = ratio(verNs, v["verify.routes_checked"])

	simNs := perPass(iters, "sim.Simulate", "")
	v["sim.run_ms"] = simNs / 1e6
	v["sim.events"] = perPass(iters, "sim.Simulate", "events")
	v["sim.packets"] = perPass(iters, "", "packets")
	v["sim.ns_per_event"] = ratio(simNs, v["sim.events"])
	v["sim.events_per_packet"] = ratio(v["sim.events"], perPass(iters, "sim.Simulate", "packets"))
	v["sim.delivered_ratio"] = ratio(perPass(iters, "", "delivered"), perPass(iters, "sim.Simulate", "packets")+
		perPass(iters, "experiment.FigureSpec.Run", "packets"))
	for _, k := range []string{"retransmits", "tx_failed", "traps_lost", "smp_retries", "lft_updates"} {
		v["sim."+k] = perPass(iters, "experiment.SMStudy", k)
	}

	figNs := perPass(iters, "experiment.FigureSpec.Run", "")
	v["experiment.figure_ms"] = figNs / 1e6
	v["experiment.points_per_s"] = ratio(perPass(iters, "experiment.FigureSpec.Run", "points"), figNs/1e9)
	v["experiment.smstudy_ms"] = perPass(iters, "experiment.SMStudy", "") / 1e6

	var gcs, pauses, traced, untraced, nspans []float64
	for _, it := range r.iters {
		if it.traced {
			gcs = append(gcs, float64(it.gcCycles))
			pauses = append(pauses, float64(it.gcPauseNs)/1e6)
			traced = append(traced, float64(it.ns)/1e9)
		} else {
			untraced = append(untraced, float64(it.ns)/1e9)
		}
	}
	for _, p := range iters {
		nspans = append(nspans, float64(len(p)))
	}
	v["go.gc_cycles"], v["go.gc_pause_ms"] = median(gcs), median(pauses)
	v["trace.spans"] = median(nspans)
	v["trace.wall_s"], v["trace.untraced_wall_s"] = median(traced), median(untraced)
	v["trace.overhead_pct"] = 100 * ratio(v["trace.wall_s"]-v["trace.untraced_wall_s"], v["trace.untraced_wall_s"])
	return named(perLayer, v)
}

func ns64(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// peakRSSBytes reads the process's peak resident set size (VmHWM) from
// /proc. Where /proc is missing it falls back to the memory the Go runtime
// has obtained from the system, which the runtime seldom returns.
func peakRSSBytes() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys)
}
