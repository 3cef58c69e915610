// Command perfbench is the repository's benchmark. One invocation runs one
// workload: it sets the workload up several times, runs timed iterations
// for the requested number of seconds, checks every output, and prints its
// metrics by name with their units. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload bigrun --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records a span around every layer call, writes the spans to a file,
// and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Set-up runs at least minSetupPasses times and until minSetupTime has
// passed before timing starts, then again after every timed iteration for
// a tenth of the iteration's length, so its passes sample the host across
// the whole run. Each block has at most maxSetupPasses passes; setup_s is
// the median pass.
const (
	minSetupPasses = 3
	maxSetupPasses = 200
	minSetupTime   = time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: bigrun, figures, faults or control")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 10, "how long to run timed iterations (at least one runs)")
		trace   = flag.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace %d: want 0 or 1", *trace)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fatalf("%v", err)
	}

	env := environment(*name, *seed)
	printEnv(env)
	r, err := run(w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatalf("%s set-up: %v", *name, err)
	}
	for _, f := range r.tally.failures {
		fmt.Printf("FAILED %s\n", f)
	}

	var metrics []metric
	if *trace == 1 {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, env, r.tracer.spans); err != nil {
			fatalf("writing spans: %v", err)
		}
		fmt.Printf("spans %d written to %s\n", len(r.tracer.spans), path)
		printLayerSelf(r.tracer.spans)
		metrics = perLayerMetrics(r)
	} else {
		metrics = endToEndMetrics(r)
		for _, m := range workloadMetrics(w, r) {
			fmt.Printf("report %-24s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	printResult(r.tally, metrics)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// result is everything one invocation measured.
type result struct {
	setupNs []int64 // per set-up pass
	iters   []iterRecord
	peakRSS float64 // bytes, over set-up and timing, before the checks
	tally   tally
	tracer  *tracer
}

// iterRecord is one timed iteration: its wall time, what it reported, and
// the Go runtime's allocation and collection counters across it.
type iterRecord struct {
	iteration
	ns         int64
	traced     bool
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// run sets the workload up, runs timed iterations within the given duration
// (at least one; with tracing, at least one traced and one untraced, taken
// in turn), settles and sets up again after each, and checks the outputs.
// An iteration starts only if one more, at the median length so far
// (settling and set-up included), still ends inside the duration, so a
// run's length does not depend on where the last long iteration happens to
// start. Checks run after all timing. Every pass starts from a fresh
// garbage collection, so none pays for the garbage of the one before.
func run(w workload, d time.Duration, traced bool) (*result, error) {
	r := &result{tracer: newTracer()}
	tr := r.tracer
	// setupBlock runs set-up passes, at least minPasses and until minTime
	// has passed, each from nothing.
	setupBlock := func(minPasses int, minTime time.Duration) error {
		begin := time.Now()
		for p := 0; p < maxSetupPasses && (p < minPasses || time.Since(begin) < minTime); p++ {
			w.reset()
			tr.on, tr.run = traced, fmt.Sprintf("setup%d", len(r.setupNs))
			runtime.GC()
			start := time.Now()
			root := tr.begin("bench", "setup")
			err := w.setup(tr)
			tr.end(root)
			r.setupNs = append(r.setupNs, int64(time.Since(start)))
			tr.on = false
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := setupBlock(minSetupPasses, minSetupTime); err != nil {
		return nil, err
	}

	minIters := 1
	if traced {
		minIters = 2
	}
	begin := time.Now()
	var walls []float64
	for i := 0; i < minIters || time.Since(begin)+time.Duration(median(walls)) <= d; i++ {
		rec := iterRecord{traced: traced && i%2 == 0}
		tr.on, tr.run = rec.traced, fmt.Sprintf("iteration%d", i)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		root := tr.begin("bench", "iteration")
		rec.iteration = w.iterate(tr, &r.tally)
		tr.end(root)
		rec.ns = int64(time.Since(start))
		runtime.ReadMemStats(&m1)
		rec.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		rec.gcCycles = m1.NumGC - m0.NumGC
		rec.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
		tr.on = false
		fmt.Printf("iteration %d wall %.6f s traced %t\n", i, float64(rec.ns)/1e9, rec.traced)
		w.settle(i == 0, &r.tally)
		r.iters = append(r.iters, rec)
		if err := setupBlock(1, time.Duration(rec.ns/10)); err != nil {
			return nil, err
		}
		walls = append(walls, float64(time.Since(start)))
	}
	r.peakRSS = peakRSSBytes()
	w.check(&r.tally)
	return r, nil
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// printResult prints the metrics one per line, then the JSON result line.
func printResult(c tally, metrics []metric) {
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Printf("metric %-30s %16.6f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	fmt.Printf("report %-24s %14.6g ratio\n", "fail_ratio", float64(c.failed)/float64(max(c.attempted, 1)))
	line, err := json.Marshal(map[string]any{
		"correct":   c.failed == 0,
		"attempted": c.attempted,
		"failed":    c.failed,
		"metrics":   out,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 0 {
		return (s[k-1] + s[k]) / 2
	}
	return s[k]
}

// quantile returns the nearest-rank q-quantile of xs, 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(q*float64(len(s))+0.5) - 1
	return s[min(max(k, 0), len(s)-1)]
}
