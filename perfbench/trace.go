package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark makes into a layer of the program.
// Spans nest: a pass (one set-up or one timed iteration) is a root span,
// and the layer calls inside it are its children.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1 for a root span
	Run    string           `json:"run"`    // shared by every span of one pass
	Layer  string           `json:"layer"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the tracer started
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing and reads no clock, so untraced runs pay one branch per
// layer call.
type tracer struct {
	on    bool
	run   string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id, or -1
// when the tracer is off.
func (t *tracer) begin(layer, name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Layer: layer, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// count attaches a count of work done to an open span.
func (t *tracer) count(id int, key string, n int64) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += n
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus the time its children cover.
// Children of one parent never overlap: a single goroutine issues every call.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// passes groups spans by the root span they descend from, keeping only
// roots with the given name, in start order. Each group lists span indices.
func passes(spans []span, root string) [][]int {
	rootOf := make([]int, len(spans))
	byRoot := map[int][]int{}
	var roots []int
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
			if s.Name == root {
				roots = append(roots, i)
			}
		} else {
			rootOf[i] = rootOf[s.Parent] // parents precede children
		}
		byRoot[rootOf[i]] = append(byRoot[rootOf[i]], i)
	}
	out := make([][]int, len(roots))
	for k, r := range roots {
		out[k] = byRoot[r]
	}
	return out
}

// layerSelf sums self time per layer over every span.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Layer] += self[i]
	}
	return out
}

// writeSpans writes the environment record and then one span per line.
func writeSpans(path string, env map[string]string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayerSelf prints per-layer self time in milliseconds, sorted by layer.
func printLayerSelf(spans []span) {
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("self %-10s %12.3f ms\n", l, float64(self[l])/1e6)
	}
}
