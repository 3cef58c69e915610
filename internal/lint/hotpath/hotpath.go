// Package hotpath enforces the simulator's cache-residency contract: the
// per-packet functions of internal/sim — the code that runs once per event,
// hundreds of millions of times per figure sweep — must stay allocation-free
// and branch-predictable. PR 5 rebuilt this path around dense index-addressed
// slices (compiled forwarding tables, struct-of-arrays switch state, pooled
// packets and typed events); this analyzer keeps the three regressions that
// most easily creep back out of it:
//
//   - sort.* calls — sorting is O(n log n) with data-dependent branches; any
//     order the hot path needs must be precomputed at build (or SM-update)
//     time;
//   - map construction (make(map...), map literals) — maps allocate, hash,
//     and iterate in randomized order; hot-path state is indexed by dense
//     (switch, port, VL) or (src, dst) keys into slices;
//   - function literals — a closure that captures variables allocates, and
//     the original closure-based event queue was the single largest line in
//     the allocation profile. Events are typed records now (see
//     internal/sim/engine.go); keep them that way.
//
// Only the functions named in hotFuncs are checked, and only inside package
// sim's non-test files: cold paths (build, reporting, fault staging) may use
// whatever shape is clearest. A justified exception is suppressed the usual
// way, with a reasoned directive:
//
//	//lint:ignore hotpath one-time table rebuild, not per-packet
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"mlid/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid sorting, map construction and closure allocation in the simulator's per-packet functions",
	Run:  run,
}

// hotFuncs names the per-packet functions: everything dispatch reaches on the
// data path (generation, switching, flow control, delivery, transport), plus
// the scheduler primitives under it. Cold entry points that merely neighbor
// them (build, compileLFT, smTrap, Run) are deliberately absent.
var hotFuncs = map[string]bool{
	// engine (engine.go)
	"schedule": true, "pop": true, "push": true, "calPush": true, "advance": true,
	// event loop and packet pool (sim.go)
	"runUntil": true, "dispatch": true,
	"newPkt": true, "freePkt": true, "pktAt": true,
	// data path (sim.go)
	"generate": true, "selectDLID": true, "interarrival": true,
	"swArrive": true, "warmFlowHigh": true, "route": true, "fwdAt": true,
	"requestTransfer": true, "completeTransfer": true,
	"kick": true, "transmit": true, "releaseSlot": true, "creditArrive": true,
	"deliverIdeal": true, "nodeArrive": true, "deliver": true,
	"nodePid": true, "seriesBin": true,
	// live-fault fast path (faults.go): per-packet once a fault plan is active
	"dropPkt": true, "pathAlive": true, "usableMask": true, "reselectActive": true,
	// path selection (selector.go): every Select method plus the congestion
	// view it reads and the helpers under it, all once per generated packet
	"Select": true, "Occupancy": true, "Credits": true, "Load": true,
	"applyDLIDFunc": true, "nthSetBit": true,
	// transport (transport.go)
	"flowIdx": true, "txTrack": true, "armTimer": true, "retransmit": true,
	"rxAccept": true, "sendCtrl": true, "ctrlArrive": true, "rexmitTimer": true,
}

func run(pass *analysis.Pass) error {
	leaf := pass.Path
	if i := strings.LastIndexByte(leaf, '/'); i >= 0 {
		leaf = leaf[i+1:]
	}
	if strings.TrimSuffix(leaf, "_test") != "sim" {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hotFuncs[fn.Name.Name] {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocation in hot-path %s: a capturing func literal allocates per call; schedule a typed event record instead", name)
			// Keep walking: a sort or map inside the closure still runs on
			// the hot path and deserves its own diagnostic.
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if pn := pass.PkgNameOf(sel.X); pn != nil && pn.Imported().Path() == "sort" {
					pass.Reportf(n.Pos(), "call to sort.%s in hot-path %s: per-packet code must not sort; precompute the order at build or SM-update time", sel.Sel.Name, name)
				}
				return true
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && isMapType(pass, n) {
					pass.Reportf(n.Pos(), "make(map) in hot-path %s: maps allocate and hash per access; index a dense slice by (switch, port, VL) or (src, dst) instead", name)
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal in hot-path %s: maps allocate and hash per access; index a dense slice by (switch, port, VL) or (src, dst) instead", name)
				}
			}
		}
		return true
	})
}

// isMapType reports whether the make call produces a map.
func isMapType(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
