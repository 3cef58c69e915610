package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mlid"
)

var workloadNames = []string{"bigrun", "figures", "faults", "control"}

// tiny returns the named workload shrunk to toy size, so that every check
// runs in about a second. Its seed must not be the default one: nothing is
// recorded for toy outputs.
func tiny(t *testing.T, name string, seed int64) workload {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *bigrun:
		w.m, w.cfg.WarmupNs, w.cfg.MeasureNs = 8, 2_000, 8_000
	case *figures:
		for i := range w.specs {
			w.specs[i].Loads, w.specs[i].VLs = []float64{0.2, 0.9}, []int{1}
			w.specs[i].WarmupNs, w.specs[i].MeasureNs = 2_000, 10_000
		}
	case *faults:
		spec := mlid.EvalSMSpecQuick()
		spec.VerifyEpochs, spec.Seed = true, w.spec.Seed
		w.spec = spec
	case *control:
		w.episodes, w.specs = 40, []fabricSpec{{4, 3, "MLID"}, {8, 2, "SLID"}}
	}
	return w
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// requires every check to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	layers := map[string]bool{}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			r, err := run(tiny(t, name, 7), 0, traced)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.tally.failed != 0 || r.tally.attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d operations failed: %v",
					name, traced, r.tally.failed, r.tally.attempted, r.tally.failures)
			}
			if !traced {
				for _, m := range endToEndMetrics(r) {
					if !(m.value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, m.value)
					}
				}
				continue
			}
			if got := len(perLayerMetrics(r)); got != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", name, got, len(perLayer))
			}
			for _, s := range r.tracer.spans {
				layers[s.Layer] = true
				if s.End < s.Start {
					t.Errorf("%s: span %s ends before it starts", name, s.Name)
				}
			}
		}
	}
	for _, l := range []string{"topology", "ib", "sm", "core", "verify", "sim", "experiment"} {
		if !layers[l] {
			t.Errorf("no span recorded for layer %s", l)
		}
	}
}

// firstPass sets a tiny workload up and runs one settled iteration, leaving
// its outputs ready for check.
func firstPass(t *testing.T, name string) workload {
	t.Helper()
	w := tiny(t, name, 3)
	tr := newTracer()
	if err := w.setup(tr); err != nil {
		t.Fatal(err)
	}
	var c tally
	w.iterate(tr, &c)
	w.settle(true, &c)
	if c.failed != 0 {
		t.Fatalf("%s: %v", name, c.failures)
	}
	return w
}

// wantFailure runs check and requires a failed operation whose description
// contains the given text.
func wantFailure(t *testing.T, w workload, text string) {
	t.Helper()
	var c tally
	w.check(&c)
	for _, f := range c.failures {
		if strings.Contains(f, text) {
			return
		}
	}
	t.Errorf("no failed operation mentions %q; failures: %v", text, c.failures)
}

// otherPort returns the table's first routed DLID and another of the m
// physical ports (numbered 1..m) than the one it routes to.
func otherPort(t *testing.T, l *mlid.LFT, m int) (mlid.LID, uint8) {
	t.Helper()
	for lid := 1; lid < l.Size(); lid++ {
		if p, err := l.Lookup(mlid.LID(lid)); err == nil {
			return mlid.LID(lid), p%uint8(m) + 1
		}
	}
	t.Fatal("table has no routed entry")
	return 0, 0
}

func TestFlippedLFTEntryFails(t *testing.T) {
	w := firstPass(t, "control").(*control)
	mad := w.first[0].mad
	lid, port := otherPort(t, mad.LFTs[0], mad.Tree.M())
	if err := mad.LFTs[0].Set(lid, port); err != nil {
		t.Fatal(err)
	}
	wantFailure(t, w, "MAD tables equal Configure's")
}

func TestPerturbedResultFails(t *testing.T) {
	w := firstPass(t, "bigrun").(*bigrun)
	w.want = digest(w.results[0])
	var c tally
	w.check(&c)
	if c.failed != 0 {
		t.Fatalf("unperturbed outputs fail: %v", c.failures)
	}
	w.results[0][0].Events++
	wantFailure(t, w, "digest matches the recorded one")
}

// TestWrongRepairDeltaFails rewrites one entry the storm's deltas remapped
// away from pristine, as a faulty delta would.
func TestWrongRepairDeltaFails(t *testing.T) {
	w := firstPass(t, "control").(*control)
	f := w.fabrics[0]
	m := uint8(f.pristine.Tree.M())
	for s, l := range w.composed[0] {
		pristine := f.pristine.LFTs[s]
		for lid := mlid.LID(1); int(lid) < l.Size(); lid++ {
			if p := l.Port(lid); p != pristine.Port(lid) {
				if err := l.Set(lid, p%m+1); err != nil {
					t.Fatal(err)
				}
				wantFailure(t, w, "storm deltas equal full-scan repair")
				return
			}
		}
	}
	t.Fatal("the storm left no entry remapped")
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "iteration", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "b", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
	}
	want := []int64{50, 30, 10, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got, want[i])
		}
	}
	if ps := passes(spans, "iteration"); len(ps) != 1 || len(ps[0]) != 4 {
		t.Errorf("passes = %v, want one pass of 4 spans", ps)
	}
}

func TestDigestSkipsZeroFields(t *testing.T) {
	type v1 struct{ A, B int }
	type v2 struct {
		A, B int
		C    []int
	}
	if digest(v1{1, 2}) != digest(v2{A: 1, B: 2}) {
		t.Error("a zero-valued added field changed the digest")
	}
	if digest(v1{1, 2}) == digest(v1{1, 3}) {
		t.Error("a changed field kept the digest")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics listed, %d reported", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the benchmark reports %+v", i, m, w)
			}
		}
	}
}
