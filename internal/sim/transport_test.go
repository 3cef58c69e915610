package sim

import (
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/traffic"
)

// transportCfg is the fault scenario of faultCfg with the reliable transport
// enabled: FT(4,2), uniform sub-saturation traffic, and the canonical spine
// link (switch 2, abstract port 2) killed mid-measurement.
func transportCfg(t *testing.T, scheme core.Scheme, plan *FaultPlan, tc *TransportConfig) Config {
	t.Helper()
	cfg := faultCfg(t, scheme, plan)
	cfg.Transport = tc
	return cfg
}

func TestTransportConfigValidation(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	pat := traffic.Uniform{Nodes: sn.Tree.Nodes()}
	base := Config{Subnet: sn, Pattern: pat, OfferedLoad: 0.1}
	bad := []*TransportConfig{
		{BaseTimeoutNs: -5},                       // negative timeout
		{BackoffMult: 0.5},                        // shrinking backoff
		{BaseTimeoutNs: 10_000, MaxTimeoutNs: 50}, // cap below base
		{AckBytes: -1},                            // negative control size
	}
	for i, tc := range bad {
		cfg := base
		cfg.Transport = tc
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad transport config %d accepted", i)
		}
	}
	cfg := base
	cfg.DataVLs = 15 // no room left for the management VL
	cfg.Transport = &TransportConfig{}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "management VL") {
		t.Errorf("DataVLs=15 with Transport: err = %v, want management-VL error", err)
	}
}

func TestTransportTimeoutBackoff(t *testing.T) {
	tc := TransportConfig{
		BaseTimeoutNs: 1_000, BackoffMult: 2, MaxTimeoutNs: 6_000, MaxRetries: 8,
	}
	want := []Time{1_000, 2_000, 4_000, 6_000, 6_000}
	for attempts, w := range want {
		if got := tc.timeout(int32(attempts)); got != w {
			t.Errorf("timeout(%d) = %d, want %d", attempts, got, w)
		}
	}
	// The computed drain default covers one full retry cycle plus slack.
	d := tc.withDefaults()
	var cycle Time
	for i := 0; i <= d.MaxRetries; i++ {
		cycle += d.timeout(int32(i))
	}
	if d.DrainNs != cycle+100_000 {
		t.Errorf("default DrainNs = %d, want cycle %d + 100000", d.DrainNs, cycle)
	}
	// Negative MaxRetries means no retransmissions; negative DrainNs means
	// no drain.
	d = TransportConfig{MaxRetries: -1, DrainNs: -1}.withDefaults()
	if d.MaxRetries != 0 || d.DrainNs != 0 {
		t.Errorf("MaxRetries=-1 DrainNs=-1 defaults to retries=%d drain=%d, want 0,0", d.MaxRetries, d.DrainNs)
	}
}

// TestTransportReceiverDedup drives the receiver's PSN state machine
// directly: in-order accept, gap buffering, the duplicate threshold before a
// NAK (reordering tolerance), the single NAK per gap, gap-fill draining, and
// duplicate suppression.
func TestTransportReceiverDedup(t *testing.T) {
	cfg := transportCfg(t, core.NewMLID(), nil, &TransportConfig{}).withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s := build(cfg)
	s.end = cfg.WarmupNs + cfg.MeasureNs

	mk := func(seq uint32) *pkt {
		p := s.newPkt()
		p.Src, p.Dst = 1, 0
		p.flowSeq = seq
		return p
	}
	// In order: 1 accepted.
	if !s.rxAccept(0, mk(1)) {
		t.Fatal("seq 1 not accepted")
	}
	// Gap: 3, 4 and 5 buffer out of order. The first two arrivals above the
	// gap look like plain multipath reordering — no NAK yet; the third crosses
	// nakDupThreshold and NAKs missing seq 2 exactly once.
	if !s.rxAccept(0, mk(3)) || !s.rxAccept(0, mk(4)) {
		t.Fatal("out-of-order packets not accepted")
	}
	if s.transport.naksSent != 0 {
		t.Fatalf("naksSent = %d after %d arrivals, want 0 (below duplicate threshold)",
			s.transport.naksSent, nakDupThreshold-1)
	}
	if !s.rxAccept(0, mk(5)) {
		t.Fatal("out-of-order seq 5 not accepted")
	}
	if s.transport.naksSent != 1 {
		t.Fatalf("naksSent = %d, want 1 (one NAK per gap)", s.transport.naksSent)
	}
	// Duplicate of a buffered packet.
	if s.rxAccept(0, mk(3)) {
		t.Fatal("duplicate of buffered seq 3 accepted twice")
	}
	// Gap fills: cum jumps over the buffered packets.
	if !s.rxAccept(0, mk(2)) {
		t.Fatal("gap-filling seq 2 not accepted")
	}
	f := &s.transport.rx[s.flowIdx(1, 0)]
	if f.cum != 5 || f.oooCount != 0 {
		t.Fatalf("after gap fill: cum = %d (want 5), oooCount = %d (want 0)", f.cum, f.oooCount)
	}
	// Duplicate below the watermark.
	if s.rxAccept(0, mk(2)) {
		t.Fatal("duplicate below watermark accepted")
	}
	if s.transport.dupDeliveries != 2 {
		t.Errorf("dupDeliveries = %d, want 2", s.transport.dupDeliveries)
	}
	if s.transport.acksSent == 0 {
		t.Error("no ACKs sent")
	}
}

// TestTransportReliableRecovery is the tentpole acceptance scenario: a spine
// link dies permanently mid-measurement under MLID with fault-avoiding
// reselection. Packets drop at the dead link, but every drop is retransmitted
// onto a surviving LID: the run ends with zero silent loss, zero failures and
// nothing in flight.
func TestTransportReliableRecovery(t *testing.T) {
	const downNs = 50_000
	plan := &FaultPlan{
		Faults:   []LinkFault{{Switch: 2, Port: 2, DownNs: downNs}},
		Reselect: true,
	}
	res, err := Run(transportCfg(t, core.NewMLID(), plan, &TransportConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedTotal == 0 {
		t.Fatal("expected drops at the dead link before the trap")
	}
	if res.Retransmits == 0 {
		t.Fatal("expected retransmissions to recover the drops")
	}
	if res.Failed != 0 {
		t.Errorf("Failed = %d, want 0: every MLID flow has a surviving path", res.Failed)
	}
	if got := res.TotalDelivered + res.Failed + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("conservation: delivered+failed+inflight = %d, generated = %d", got, res.TotalGenerated)
	}
	if res.InFlightAtEnd != 0 {
		t.Errorf("InFlightAtEnd = %d, want 0 after the drain", res.InFlightAtEnd)
	}
	if res.LastRecoveredNs <= downNs {
		t.Errorf("LastRecoveredNs = %d, want after the failure at %d", res.LastRecoveredNs, downNs)
	}
	if res.AcksSent == 0 || res.CtrlBytesSent == 0 {
		t.Errorf("no acknowledgment traffic: acks=%d bytes=%d", res.AcksSent, res.CtrlBytesSent)
	}
	if res.P999LatencyNs < res.P99LatencyNs {
		t.Errorf("p999 %f below p99 %f", res.P999LatencyNs, res.P99LatencyNs)
	}
}

// TestTransportMLIDBeatsSLID is the issue's acceptance comparison: on the
// same seed and fault, retransmissions re-enter path selection, so MLID
// steers retries onto surviving LIDs while SLID hammers its single dead path
// — strictly fewer retransmissions, and no exhausted retry budgets.
func TestTransportMLIDBeatsSLID(t *testing.T) {
	const downNs = 50_000
	run := func(scheme core.Scheme) Result {
		t.Helper()
		plan := &FaultPlan{
			Faults:   []LinkFault{{Switch: 2, Port: 2, DownNs: downNs}},
			Reselect: true,
		}
		res, err := Run(transportCfg(t, scheme, plan, &TransportConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.TotalDelivered + res.Failed + res.InFlightAtEnd; got != res.TotalGenerated {
			t.Errorf("conservation: delivered+failed+inflight = %d, generated = %d", got, res.TotalGenerated)
		}
		return res
	}
	slid := run(core.NewSLID())
	mlid := run(core.NewMLID())
	if mlid.Retransmits >= slid.Retransmits {
		t.Errorf("MLID retransmits %d, SLID %d: want strictly fewer under MLID",
			mlid.Retransmits, slid.Retransmits)
	}
	if mlid.Failed != 0 {
		t.Errorf("MLID Failed = %d, want 0", mlid.Failed)
	}
	if slid.Failed == 0 && slid.InFlightAtEnd == 0 {
		t.Errorf("SLID rode through a permanent fault unscathed (failed=0, inflight=0): fault did not bite")
	}
}

// TestTransportNoFaultClean proves the transport is quiet on a healthy
// fabric: everything delivers, nothing fails, nothing is left in flight.
func TestTransportNoFaultClean(t *testing.T) {
	res, err := Run(transportCfg(t, core.NewMLID(), nil, &TransportConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("Failed = %d on a healthy fabric", res.Failed)
	}
	if res.InFlightAtEnd != 0 {
		t.Errorf("InFlightAtEnd = %d, want 0 after drain", res.InFlightAtEnd)
	}
	if res.TotalDelivered != res.TotalGenerated {
		t.Errorf("delivered %d != generated %d", res.TotalDelivered, res.TotalGenerated)
	}
	if res.AcksSent < res.TotalDelivered {
		t.Errorf("acks %d below deliveries %d: every accepted packet is acknowledged",
			res.AcksSent, res.TotalDelivered)
	}
}

// TestTransportRetryBudget forces failure: a node's attachment link dies
// permanently, so no retry can ever reach it; with reselection off and a tiny
// budget, every packet to that node must exhaust its retries and count
// Failed, never hang in flight.
func TestTransportRetryBudget(t *testing.T) {
	leaf := int32(2) // node 0's leaf switch; abstract port 0 is its attachment
	plan := &FaultPlan{
		Faults: []LinkFault{{Switch: leaf, Port: 0, DownNs: 30_000}},
	}
	// Retry cycles resolve sequentially per flow (only the oldest
	// unacknowledged packet retransmits), so give the drain room for a
	// whole backlog of failures.
	tc := &TransportConfig{
		BaseTimeoutNs: 2_000, MaxTimeoutNs: 4_000, MaxRetries: 2,
		DrainNs: 500_000,
	}
	res, err := Run(transportCfg(t, core.NewMLID(), plan, tc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("no Failed packets despite an unreachable node and a tiny retry budget")
	}
	if got := res.TotalDelivered + res.Failed + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("conservation: delivered+failed+inflight = %d, generated = %d", got, res.TotalGenerated)
	}
	if res.InFlightAtEnd != 0 {
		t.Errorf("InFlightAtEnd = %d, want 0: failures must resolve within the drain", res.InFlightAtEnd)
	}
}

// TestTransportDeterminism runs the transport fault scenario twice on the
// calendar path and once on the heap-only path (Config.HeapOnlyScheduler):
// all three results must be identical.
func TestTransportDeterminism(t *testing.T) {
	run := func(heapOnlyCfg bool) Result {
		t.Helper()
		plan := &FaultPlan{
			Faults:   []LinkFault{{Switch: 2, Port: 2, DownNs: 50_000, UpNs: 90_000}},
			Reselect: true,
		}
		cfg := transportCfg(t, core.NewMLID(), plan, &TransportConfig{})
		cfg.HeapOnlyScheduler = heapOnlyCfg
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(false)
	b := run(false)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("transport run is not deterministic")
	}
	if heap := run(true); !reflect.DeepEqual(a, heap) {
		t.Fatal("calendar and heap-only scheduler paths disagree under transport")
	}
}
