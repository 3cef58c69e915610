package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"time"

	"mlid"
	"mlid/internal/ib"
	"mlid/internal/sm"
	"mlid/internal/verify"
)

// workload is one named input set. setup builds what the timed phase
// needs and runs several times, before and between timed passes (the last
// result is kept); reset drops what setup built, so that each set-up pass
// starts from nothing; iterate is one timed pass; settle runs untimed after
// each pass; check verifies the outputs once timing is over.
type workload interface {
	setup(tr *tracer) error
	reset()
	iterate(tr *tracer, c *tally) iteration
	settle(first bool, c *tally)
	check(c *tally)
}

// iteration is what one timed pass reports besides its wall time.
type iteration struct {
	// work counts the units ops_per_s is taken over: simulated packets, or
	// fault episodes on control.
	work int64
	// workNs is the host time those units took; 0 means the whole pass.
	workNs int64
	// episodes holds each fault episode's reconvergence time, per fabric
	// (control).
	episodes [][]int64
}

// defaultSeed is the seed whose output digests are recorded in digests.go.
// At this seed every campaign runs with the seeds the repository ships.
const defaultSeed = 1

// seedStride separates the seed ranges of campaigns run at different
// benchmark seeds; it exceeds any per-run offset a campaign adds.
const seedStride = 1_000_003

func newWorkload(name string, seed int64) (workload, error) {
	want := ""
	if seed == defaultSeed {
		want = recordedDigests[name]
	}
	shift := (seed - defaultSeed) * seedStride
	switch name {
	case "bigrun":
		return &bigrun{m: 32, n: 2, want: want, cfg: mlid.SimConfig{
			OfferedLoad: 0.5, WarmupNs: 100_000, MeasureNs: 300_000, Seed: seed}}, nil
	case "figures":
		specs := mlid.EvalQuickFigures()
		for i := range specs {
			specs[i].Seed += shift
		}
		return &figures{specs: specs, want: want}, nil
	case "faults":
		spec := mlid.EvalSMSpecDefault()
		spec.VerifyEpochs = true
		spec.Seed += shift
		return &faults{spec: spec, want: want}, nil
	case "control":
		return &control{seed: seed, episodes: 5000, maxDead: 4, want: want,
			specs: []fabricSpec{{8, 4, "MLID"}, {16, 3, "SLID"}}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want bigrun, figures, faults or control)", name)
}

// newTree and configure wrap the topology and ib layers' entry points in
// spans.
func newTree(tr *tracer, m, n int) (*mlid.Tree, error) {
	id := tr.begin("topology", "topology.NewTree")
	t, err := mlid.NewTree(m, n)
	tr.end(id)
	return t, err
}

func configure(tr *tracer, t *mlid.Tree, s mlid.Scheme) (*mlid.Subnet, error) {
	id := tr.begin("ib", "ib.Configure")
	sn, err := mlid.Configure(t, s)
	if err == nil {
		tr.count(id, "lft_entries", lftEntries(sn))
	}
	tr.end(id)
	return sn, err
}

// configureAll builds FT(m, n) and configures it under every given scheme.
func configureAll(tr *tracer, m, n int, schemes []mlid.Scheme) ([]*mlid.Subnet, error) {
	t, err := newTree(tr, m, n)
	if err != nil {
		return nil, err
	}
	out := make([]*mlid.Subnet, len(schemes))
	for i, s := range schemes {
		if out[i], err = configure(tr, t, s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func lftEntries(sn *mlid.Subnet) int64 {
	var n int64
	for _, l := range sn.LFTs {
		n += int64(l.Size())
	}
	return n
}

// bigrun is one long simulation of FT(32,2) under uniform traffic at load
// 0.5, MLID then SLID, every other option at its default.
type bigrun struct {
	m, n    int
	cfg     mlid.SimConfig
	subnets []*mlid.Subnet
	results [][]mlid.SimResult // per iteration, one per scheme
	want    string
}

func (w *bigrun) reset() { w.subnets = nil }

func (w *bigrun) setup(tr *tracer) (err error) {
	w.subnets, err = configureAll(tr, w.m, w.n, mlid.Schemes())
	return err
}

func (w *bigrun) iterate(tr *tracer, c *tally) iteration {
	var it iteration
	out := make([]mlid.SimResult, len(w.subnets))
	for i, sn := range w.subnets {
		cfg := w.cfg
		cfg.Subnet, cfg.Pattern = sn, mlid.UniformTraffic(sn.Tree.Nodes())
		id := tr.begin("sim", "sim.Simulate")
		res, err := mlid.Simulate(cfg)
		tr.count(id, "events", res.Events)
		tr.count(id, "packets", res.TotalGenerated)
		tr.count(id, "delivered", res.TotalDelivered)
		tr.end(id)
		c.record("simulate "+sn.Engine.Name(), err)
		out[i] = res
		it.work += res.TotalGenerated
	}
	w.results = append(w.results, out)
	return it
}

func (w *bigrun) settle(bool, *tally) {}

func (w *bigrun) check(c *tally) {
	var digests []string
	for _, out := range w.results {
		for _, res := range out {
			c.record("conservation", conservation(res))
		}
		digests = append(digests, digest(out))
	}
	checkDigests(c, digests, w.want)
	verifyPristine(c, w.subnets)
}

// figures is the paper's figure set F1-F8 at the quick settings, each
// figure through EvalFigureSpec.Run and its own worker pool.
type figures struct {
	specs   []mlid.EvalFigureSpec
	subnets []*mlid.Subnet // every network the figures use, both schemes
	figs    [][]mlid.EvalFigure
	want    string
	// ratio is the geometric mean of the 1-VL MLID/SLID peak ratio over
	// the uniform figures, filled by check.
	ratio float64
}

func (w *figures) reset() { w.subnets = nil }

func (w *figures) setup(tr *tracer) error {
	seen := map[mlid.EvalNetwork]bool{}
	for _, s := range w.specs {
		if seen[s.Network] {
			continue
		}
		seen[s.Network] = true
		sns, err := configureAll(tr, s.Network.M, s.Network.N, mlid.Schemes())
		if err != nil {
			return err
		}
		w.subnets = append(w.subnets, sns...)
	}
	return nil
}

func (w *figures) iterate(tr *tracer, c *tally) iteration {
	var it iteration
	out := make([]mlid.EvalFigure, len(w.specs))
	for i, s := range w.specs {
		id := tr.begin("experiment", "experiment.FigureSpec.Run")
		fig, err := s.Run()
		var points, generated, delivered int64
		for _, cv := range fig.Curves {
			points += int64(len(cv.Points))
			for _, p := range cv.Points {
				generated += p.Generated
				delivered += p.Delivered
			}
		}
		tr.count(id, "points", points)
		tr.count(id, "packets", generated)
		tr.count(id, "delivered", delivered)
		tr.end(id)
		c.record("figure "+s.ID, err)
		out[i] = fig
		it.work += generated
	}
	w.figs = append(w.figs, out)
	return it
}

func (w *figures) settle(bool, *tally) {}

func (w *figures) check(c *tally) {
	var digests []string
	for _, out := range w.figs {
		digests = append(digests, digest(out))
	}
	checkDigests(c, digests, w.want)
	var err error
	w.ratio, err = observation1(w.figs[0])
	c.record("observation 1", err)
	verifyPristine(c, w.subnets)
}

// faults is the in-band subnet-management study on FT(8,3) with every
// applied epoch verified: lost traps, SMP retries, SM failover and the
// reliable transport in one campaign.
type faults struct {
	spec    mlid.EvalSMSpec
	subnets []*mlid.Subnet
	rows    [][]mlid.EvalSMRow
	want    string
}

func (w *faults) reset() { w.subnets = nil }

func (w *faults) setup(tr *tracer) (err error) {
	w.subnets, err = configureAll(tr, w.spec.Network.M, w.spec.Network.N, mlid.Schemes())
	return err
}

func (w *faults) iterate(tr *tracer, c *tally) iteration {
	var it iteration
	id := tr.begin("experiment", "experiment.SMStudy")
	rows, err := mlid.EvalSMStudy(w.spec)
	for _, r := range rows {
		for _, sp := range r.Series {
			tr.count(id, "retransmits", sp.Retransmits)
			it.work += sp.Delivered
		}
		tr.count(id, "tx_failed", r.Failed)
		tr.count(id, "traps_lost", r.TrapsLost)
		tr.count(id, "smp_retries", r.SMPRetries)
		tr.count(id, "lft_updates", r.LFTUpdates)
	}
	tr.count(id, "packets", it.work)
	tr.end(id)
	c.record("sm study", err)
	w.rows = append(w.rows, rows)
	return it
}

func (w *faults) settle(bool, *tally) {}

func (w *faults) check(c *tally) {
	var digests []string
	for _, rows := range w.rows {
		digests = append(digests, digest(rows))
	}
	checkDigests(c, digests, w.want)
	verifyPristine(c, w.subnets)
}

// fabricSpec names one control-plane fabric.
type fabricSpec struct {
	m, n   int
	scheme string
}

// control is the control plane alone: MAD bring-up, static verification
// and a seeded storm of link fail/heal episodes repaired incrementally.
type control struct {
	specs             []fabricSpec
	episodes, maxDead int
	seed              int64
	fabrics           []*fabric
	digests           []string
	want              string
	// Per fabric, from the first pass, for check: its outputs, and its
	// live tables at the end of the storm.
	first    []fabricOutputs
	composed [][]*mlid.LFT
}

// fabric is one control-plane fabric's state, rebuilt by each set-up pass.
type fabric struct {
	episode  string // span name of its storm episodes
	pristine *mlid.Subnet
	state    *mlid.RepairState
	live     []*mlid.LFT   // pristine plus every applied delta
	views    [][][2]int32  // dead links after each storm episode
	outputs  fabricOutputs // of the current pass
	buf      []byte        // scratch for hashing deltas
}

type fabricOutputs struct {
	mad    *mlid.Subnet
	smps   sm.BringupStats
	report *verify.Report
	deltas hash.Hash // every storm delta of the pass, in episode order
}

func (w *control) reset() { w.fabrics = nil }

func (w *control) setup(tr *tracer) error {
	for i, fs := range w.specs {
		scheme, err := mlid.SchemeByName(fs.scheme)
		if err != nil {
			return err
		}
		sns, err := configureAll(tr, fs.m, fs.n, []mlid.Scheme{scheme})
		if err != nil {
			return err
		}
		f := &fabric{episode: fmt.Sprintf("episode %s %s", sns[0].Tree, fs.scheme), pristine: sns[0]}
		id := tr.begin("core", "core.NewRepairState")
		f.state = mlid.NewRepairState(f.pristine)
		tr.end(id)
		f.live = cloneLFTs(f.pristine.LFTs)
		rng := rand.New(rand.NewSource(w.seed*int64(len(w.specs)) + int64(i)))
		f.views = stormViews(f.pristine.Tree, rng, w.episodes, w.maxDead)
		w.fabrics = append(w.fabrics, f)
	}
	return nil
}

func cloneLFTs(lfts []*mlid.LFT) []*mlid.LFT {
	out := make([]*mlid.LFT, len(lfts))
	for i, l := range lfts {
		out[i] = l.Clone()
	}
	return out
}

// stormViews draws the storm: each episode fails one more inter-switch link
// or heals a failed one, keeping at most maxDead links down. A link is named
// by its lower switch's up port, the form the simulator's SM uses.
func stormViews(t *mlid.Tree, rng *rand.Rand, episodes, maxDead int) [][][2]int32 {
	var dead [][2]int32
	views := make([][][2]int32, episodes)
	for e := range views {
		if len(dead) > 0 && (len(dead) >= maxDead || rng.Intn(3) == 0) {
			k := rng.Intn(len(dead))
			dead = slices.Delete(slices.Clone(dead), k, k+1)
		} else {
			for {
				sw := mlid.SwitchID(rng.Intn(t.Switches()))
				if t.IsRoot(sw) {
					continue
				}
				down := t.DownPorts(sw)
				link := [2]int32{int32(sw), int32(down + rng.Intn(t.M()-down))}
				if !slices.Contains(dead, link) {
					dead = append(slices.Clone(dead), link)
					break
				}
			}
		}
		views[e] = dead
	}
	return views
}

func faultSet(t *mlid.Tree, view [][2]int32) *mlid.FaultSet {
	fs := mlid.NewFaultSet()
	for _, l := range view {
		fs.FailLink(t, mlid.SwitchID(l[0]), int(l[1]))
	}
	return fs
}

// applyDeltas writes repair deltas into live tables.
func applyDeltas(live []*mlid.LFT, deltas []mlid.SwitchDelta) error {
	for _, d := range deltas {
		for _, e := range d.Entries {
			if err := live[d.Switch].Set(e.LID, e.Port); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *control) iterate(tr *tracer, c *tally) iteration {
	it := iteration{episodes: make([][]int64, len(w.fabrics))}
	for fi, f := range w.fabrics {
		t := f.pristine.Tree
		id := tr.begin("sm", "sm.ConfigureViaMAD")
		mgr := &sm.MADSubnetManager{Fabric: ib.NewSMAFabric(t), Origin: 0, Engine: f.pristine.Engine}
		mad, err := mgr.Configure()
		tr.count(id, "smps", int64(mgr.Stats.Total()))
		tr.end(id)
		c.record(fmt.Sprintf("MAD bring-up %s", t), err)
		f.outputs = fabricOutputs{mad: mad, smps: mgr.Stats, deltas: sha256.New()}

		id = tr.begin("verify", "verify.Run")
		rep, err := verify.Run(verify.FromSubnet(f.pristine), verifyOptions())
		if err == nil {
			tr.count(id, "routes", int64(rep.Stats.RoutesChecked))
			tr.count(id, "dependencies", int64(rep.Stats.Dependencies))
		}
		tr.end(id)
		c.record(fmt.Sprintf("verify %s", t), err)
		f.outputs.report = rep

		var prev [][2]int32
		for _, view := range f.views {
			start := time.Now()
			ep := tr.begin("bench", f.episode)
			id := tr.begin("core", "core.DirtySwitches")
			dirty := f.state.DirtySwitches(prev, view)
			tr.count(id, "dirty_switches", int64(len(dirty)))
			tr.end(id)
			fs := faultSet(t, view)
			id = tr.begin("core", "core.RepairIncremental")
			deltas, err := f.state.RepairIncremental(fs, dirty)
			for _, d := range deltas {
				tr.count(id, "delta_entries", int64(len(d.Entries)))
			}
			tr.end(id)
			id = tr.begin("ib", "ib.LFT.Set")
			if err == nil {
				err = applyDeltas(f.live, deltas)
			}
			tr.end(id)
			tr.end(ep)
			ns := int64(time.Since(start))
			it.episodes[fi] = append(it.episodes[fi], ns)
			it.workNs += ns
			if err != nil {
				c.record("repair episode", err)
			}
			f.buf = hashDeltas(f.outputs.deltas, f.buf, deltas)
			prev = view
		}
		it.work += int64(len(f.views))
	}
	return it
}

// settle records the pass's outputs and heals every link the storm left
// down, which must restore the pristine tables.
func (w *control) settle(first bool, c *tally) {
	var outs []fabricOutputs
	for _, f := range w.fabrics {
		final := f.views[len(f.views)-1]
		if first {
			w.first = append(w.first, f.outputs)
			w.composed = append(w.composed, cloneLFTs(f.live))
		}
		dirty := f.state.DirtySwitches(final, nil)
		deltas, err := f.state.RepairIncremental(mlid.NewFaultSet(), dirty)
		if err == nil {
			err = applyDeltas(f.live, deltas)
		}
		c.record("heal all links", err)
		c.record(fmt.Sprintf("healing every link restores pristine tables on %s %s", f.pristine.Tree, f.pristine.Engine.Name()),
			sameLFTs(f.pristine.LFTs, f.live))
		outs = append(outs, f.outputs)
		f.outputs = fabricOutputs{}
	}
	w.digests = append(w.digests, controlDigest(outs))
}

// hashDeltas writes one episode's deltas into h as raw bytes, through buf,
// and returns buf for reuse. A pass has tens of millions of delta entries,
// so they are hashed as the storm goes, outside each episode's timer,
// rather than kept.
func hashDeltas(h hash.Hash, buf []byte, deltas []mlid.SwitchDelta) []byte {
	buf = buf[:0]
	for _, d := range deltas {
		for _, e := range d.Entries {
			buf = append(buf, byte(d.Switch>>8), byte(d.Switch), byte(e.LID>>8), byte(e.LID), e.Port)
		}
	}
	h.Write(append(buf, 0xff))
	return buf
}

// controlDigest covers the bring-up counts, the verifier statistics and
// the hash of every storm delta; the MAD tables themselves are compared in
// check.
func controlDigest(outs []fabricOutputs) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintln(h, digest(o.smps))
		if o.report != nil {
			fmt.Fprintln(h, digest(o.report.Stats))
		}
		if o.deltas != nil {
			h.Write(o.deltas.Sum(nil))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *control) check(c *tally) {
	for fi, f := range w.fabrics {
		sn, t := f.pristine, f.pristine.Tree
		name := fmt.Sprintf("%s %s", t, sn.Engine.Name())
		first, composed := w.first[fi], w.composed[fi]
		if first.mad != nil {
			c.record("MAD tables equal Configure's on "+name, sameTables(sn, first.mad))
		}
		if first.report != nil {
			c.record("verify pristine "+name, verifyClean(first.report))
		}

		// The deltas composed onto pristine tables must equal a full-scan
		// repair of pristine tables under the storm's final fault set.
		final := f.views[len(f.views)-1]
		oracle := &mlid.Subnet{Tree: t, Engine: sn.Engine, Endports: sn.Endports, LFTs: cloneLFTs(sn.LFTs)}
		_, _, err := mlid.RepairSubnet(oracle, faultSet(t, final))
		if err == nil {
			err = sameLFTs(oracle.LFTs, composed)
		}
		c.record("storm deltas equal full-scan repair on "+name, err)

		in := verify.FromSubnet(sn)
		in.LFTs, in.DeadLinks = composed, final
		rep, err := verify.Run(in, verifyOptions())
		if err == nil {
			err = verifyClean(rep)
		}
		c.record("verify repaired "+name, err)
	}
	checkDigests(c, w.digests, w.want)
}
