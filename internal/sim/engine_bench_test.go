package sim

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// BenchmarkEngineSchedule measures the raw scheduler: schedule+pop cycles
// through the calendar window and the far heap, reporting ns/event so engine
// regressions are visible independently of the figure benchmarks. Each case
// keeps a standing population of events and reschedules every popped one
// ahead of now:
//
//   - calendar/near: offsets 1..256 ns, always inside the window;
//   - calendar/mixed: offsets 1..2*calSize ns, about half of them beyond
//     the window, so about half the events migrate in from the far heap;
//   - generation: 512 standing events at phases 1..512 ns, each rescheduled
//     exactly 512 ns ahead — the open-loop generators' shape at load 0.5
//     with 256-byte packets;
//   - heap: the calendar/near offsets in heap-only mode (1 ns window).
func BenchmarkEngineSchedule(b *testing.B) {
	bench := func(b *testing.B, standing int, phase, offset func(i int) Time, heapOnly bool) {
		var e engine
		e.setup(heapOnly)
		for i := 0; i < standing; i++ {
			e.schedule(phase(i), event{kind: evKick})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev, ok := e.pop(1 << 62)
			if !ok {
				b.Fatal("queue drained")
			}
			_ = ev
			e.schedule(e.now+offset(i), event{kind: evKick})
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	}
	spread := func(horizon int) func(int) Time {
		return func(i int) Time { return Time(i%horizon) + 1 }
	}
	near, mixed := spread(256), spread(2*calSize)
	b.Run("calendar/near", func(b *testing.B) { bench(b, 64, near, near, false) })
	b.Run("calendar/mixed", func(b *testing.B) { bench(b, 64, mixed, mixed, false) })
	b.Run("generation", func(b *testing.B) {
		bench(b, 512, spread(512), func(int) Time { return 512 }, false)
	})
	b.Run("heap", func(b *testing.B) { bench(b, 64, near, near, true) })
}

func benchSubnet(b *testing.B, m, n int) *ib.Subnet {
	b.Helper()
	tr := topology.MustNew(m, n)
	sn, err := (&ib.SubnetManager{Tree: tr, Engine: core.NewMLID()}).Configure()
	if err != nil {
		b.Fatal(err)
	}
	return sn
}

// BenchmarkRunSmall measures one full small simulation, reporting ns/event
// and allocs/op for the whole hot path (engine + model + packet pool).
func BenchmarkRunSmall(b *testing.B) {
	sn := benchSubnet(b, 8, 2)
	cfg := Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		DataVLs:     2,
		OfferedLoad: 0.6,
		WarmupNs:    10_000,
		MeasureNs:   50_000,
		Seed:        1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
}
