package verify

import (
	"fmt"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// depGraph is one lane's channel-dependency graph: an edge from channel A
// to channel B whenever some route can hold A while requesting B. B always
// leaves the switch A leads into, so the edge is stored at A*m + B's port.
type depGraph struct {
	used     []bool // channel id -> crossed by some route
	edge     []bool // A*m + port -> A depends on the channel out of that port
	channels int
	deps     int
}

// lanes holds the dependency graph of every virtual lane: one shared graph
// when every lane carries every route, else one per lane of the static
// DLID-to-lane mapping.
type lanes struct {
	m      int
	vls    int
	vlOf   func(dlid ib.LID, vls int) int
	graphs []depGraph
}

func (f *fabric) newLanes(opt Options) *lanes {
	numChan := f.t.Switches() * f.m
	g := &lanes{m: f.m, vls: opt.VLs, vlOf: opt.VLOf, graphs: make([]depGraph, 1)}
	if opt.VLOf != nil {
		g.graphs = make([]depGraph, opt.VLs)
	}
	for i := range g.graphs {
		g.graphs[i] = depGraph{used: make([]bool, numChan), edge: make([]bool, numChan*f.m)}
	}
	return g
}

// add records the dependencies of one walked route on its lane's graph:
// each consecutive pair of held channels forms an edge, and a looping route
// also requests its cycle's first channel again. A route through broken
// tables contributes the hops it actually traverses.
func (g *lanes) add(dlid ib.LID, w *walk) {
	vl := 0
	if g.vlOf != nil {
		if vl = g.vlOf(dlid, g.vls); vl < 0 || vl >= g.vls {
			return
		}
	}
	gr := &g.graphs[vl]
	h := w.held()
	for i, c := range h {
		if !gr.used[c] {
			gr.used[c] = true
			gr.channels++
		}
		if i > 0 {
			gr.link(h[i-1], c, g.m)
		}
	}
	if w.stop == stopLoop {
		gr.link(h[len(h)-1], h[w.loopAt], g.m)
	}
}

func (gr *depGraph) link(a, b int32, m int) {
	if e := int(a)*m + int(b)%m; !gr.edge[e] {
		gr.edge[e] = true
		gr.deps++
	}
}

// checkDeadlock searches each lane's channel-dependency graph for cycles
// (Dally & Seitz: acyclic proves deadlock freedom under credit-based flow
// control) and reports the shortest witness cycle of each cyclic lane.
// Stats.Channels / Stats.Dependencies size the largest graph.
func (f *fabric) checkDeadlock(rep *Report, g *lanes) {
	for vl := range g.graphs {
		gr := &g.graphs[vl]
		rep.Stats.Channels = max(rep.Stats.Channels, gr.channels)
		rep.Stats.Dependencies = max(rep.Stats.Dependencies, gr.deps)
		cycle := shortestCycle(f.adjacency(gr))
		if cycle == nil {
			continue
		}
		witness := make([]string, len(cycle))
		for i, c := range cycle {
			witness[i] = f.chanLabel(int32(c))
		}
		lane := "every VL (no VL transitions)"
		if g.vlOf != nil {
			lane = fmt.Sprintf("VL %d", vl)
		}
		rep.add(f.cap, Finding{
			Analyzer: "deadlock",
			Severity: Error,
			Location: witness[0],
			Message:  fmt.Sprintf("channel-dependency cycle of %d links on %s: credit deadlock possible", len(cycle), lane),
			Witness:  witness,
		})
	}
}

// adjacency turns a graph's edges into adjacency lists, ascending by
// successor channel, so every later traversal is deterministic.
func (f *fabric) adjacency(gr *depGraph) [][]int32 {
	adj := make([][]int32, len(gr.used))
	for a := range adj {
		row := gr.edge[a*f.m : (a+1)*f.m]
		for p, ok := range row {
			if ok {
				next := f.t.SwitchNeighbor(topology.SwitchID(a/f.m), a%f.m).Switch
				adj[a] = append(adj[a], int32(int(next)*f.m+p))
			}
		}
	}
	return adj
}

// shortestCycle returns the shortest directed cycle in the graph (nil if
// acyclic). A cheap DFS 3-coloring decides existence first; only when a
// cycle exists does the quadratic shortest-search run (per-node BFS back to
// itself), so the healthy-fabric path stays linear.
func shortestCycle(adj [][]int32) []int {
	numChan := len(adj)
	if !hasCycle(adj) {
		return nil
	}
	var best []int
	dist := make([]int32, numChan)
	parent := make([]int32, numChan)
	queue := make([]int32, 0, numChan)
	for start := 0; start < numChan; start++ {
		if len(adj[start]) == 0 {
			continue
		}
		if best != nil && len(best) == 2 {
			break // nothing shorter than a 2-cycle can follow (self-loops handled below)
		}
		// Self-loop: the shortest possible cycle.
		for _, nb := range adj[start] {
			if int(nb) == start {
				return []int{start}
			}
		}
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		queue = queue[:0]
		for _, nb := range adj[start] {
			if dist[nb] < 0 {
				dist[nb] = 1
				parent[nb] = int32(start)
				queue = append(queue, nb)
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if best != nil && int(dist[v]) >= len(best) {
				break
			}
			for _, nb := range adj[v] {
				if int(nb) == start {
					cyc := []int{start}
					for u := v; u != int32(start); u = parent[u] {
						cyc = append(cyc, int(u))
					}
					// Reverse into walk order: start -> ... -> v -> start.
					for i, j := 1, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					if best == nil || len(cyc) < len(best) {
						best = cyc
					}
					break
				}
				if dist[nb] < 0 {
					dist[nb] = dist[v] + 1
					parent[nb] = v
					queue = append(queue, nb)
				}
			}
		}
	}
	return best
}

// hasCycle is an iterative DFS 3-coloring over the whole graph.
func hasCycle(adj [][]int32) bool {
	numChan := len(adj)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, numChan)
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	for start := 0; start < numChan; start++ {
		if color[start] != white || len(adj[start]) == 0 {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], frame{node: int32(start)})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.next >= len(adj[fr.node]) {
				color[fr.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			nb := adj[fr.node][fr.next]
			fr.next++
			switch color[nb] {
			case gray:
				return true
			case white:
				color[nb] = gray
				stack = append(stack, frame{node: nb})
			}
		}
	}
	return false
}
