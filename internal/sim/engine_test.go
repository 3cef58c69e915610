package sim

import "testing"

// mark builds a recognizable test event; the engine never interprets fields,
// so evGenerate with a as the payload works as a plain marker.
func mark(v int32) event { return event{kind: evGenerate, a: v} }

// drain pops every event with t <= end and returns the marker payloads.
func drain(e *engine, end Time) []int32 {
	var got []int32
	for {
		ev, ok := e.pop(end)
		if !ok {
			return got
		}
		got = append(got, ev.a)
	}
}

// newTestEngine returns a set-up engine in the given scheduler mode.
func newTestEngine(heapOnly bool) *engine {
	e := new(engine)
	e.setup(heapOnly)
	return e
}

// engineModes runs a subtest against both scheduler paths.
func engineModes(t *testing.T, fn func(t *testing.T, e *engine)) {
	t.Run("calendar", func(t *testing.T) { fn(t, newTestEngine(false)) })
	t.Run("heap", func(t *testing.T) { fn(t, newTestEngine(true)) })
}

func TestEngineOrdersByTime(t *testing.T) {
	engineModes(t, func(t *testing.T, e *engine) {
		e.schedule(30, mark(3))
		e.schedule(10, mark(1))
		e.schedule(20, mark(2))
		got := drain(e, 100)
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("order = %v", got)
		}
		if e.now != 30 {
			t.Fatalf("now = %d", e.now)
		}
	})
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	engineModes(t, func(t *testing.T, e *engine) {
		for i := int32(0); i < 10; i++ {
			e.schedule(5, mark(i))
		}
		for i, v := range drain(e, 5) {
			if v != int32(i) {
				t.Fatalf("same-time events reordered at %d: got %d", i, v)
			}
		}
	})
}

func TestEngineStopsAtHorizon(t *testing.T) {
	engineModes(t, func(t *testing.T, e *engine) {
		e.schedule(50, mark(1))
		if _, ok := e.pop(49); ok {
			t.Fatal("event beyond horizon ran")
		}
		if e.pending() != 1 {
			t.Fatal("event dropped by a too-early pop")
		}
		if ev, ok := e.pop(50); !ok || ev.a != 1 {
			t.Fatal("event at horizon skipped")
		}
	})
}

func TestEngineClampsPastScheduling(t *testing.T) {
	engineModes(t, func(t *testing.T, e *engine) {
		e.schedule(10, mark(1))
		ev, _ := e.pop(100)
		if ev.a != 1 || e.now != 10 {
			t.Fatalf("first pop: ev.a=%d now=%d", ev.a, e.now)
		}
		// Scheduling in the past clamps to now.
		e.schedule(3, mark(2))
		ev, ok := e.pop(100)
		if !ok || ev.a != 2 || e.now != 10 {
			t.Fatalf("past event: ok=%v a=%d now=%d, want a=2 at 10", ok, ev.a, e.now)
		}
	})
}

func TestEngineCascade(t *testing.T) {
	engineModes(t, func(t *testing.T, e *engine) {
		// Each popped event schedules its successor 7 ns later, as the
		// simulator's generators do.
		e.schedule(0, mark(0))
		count := int32(0)
		for {
			ev, ok := e.pop(1000)
			if !ok {
				break
			}
			count++
			if ev.a < 4 {
				e.schedule(e.now+7, mark(ev.a+1))
			}
		}
		if count != 5 || e.now != 28 {
			t.Fatalf("count=%d now=%d", count, e.now)
		}
	})
}

// TestEngineCalendarHeapInterleave mixes near-horizon calendar events with
// far-future heap events, including an exact time tie across the two
// structures, and requires global (t, seq) order. As time advances, events
// scheduled into the heap (beyond the horizon at schedule time) migrate into
// the calendar and pop correctly.
func TestEngineCalendarHeapInterleave(t *testing.T) {
	e := newTestEngine(false)
	e.schedule(calSize+100, mark(4)) // beyond horizon: heap (seq 1)
	e.schedule(50, mark(1))          // calendar
	e.schedule(calSize+100, mark(5)) // heap, same tick as seq 1: runs after it
	e.schedule(60, mark(2))          // calendar
	e.schedule(calSize-1, mark(3))   // last calendar tick

	want := []int32{1, 2, 3, 4, 5}
	for i, w := range want {
		ev, ok := e.pop(1 << 40)
		if !ok || ev.a != w {
			t.Fatalf("pop %d: got %v (ok=%v), want %d", i, ev.a, ok, w)
		}
		if i == 2 {
			// Calendar is drained; schedule a tie against the heap head at
			// calSize+100: the heap event has the older seq and must win.
			e.schedule(calSize+100, mark(6))
		}
	}
	ev, ok := e.pop(1 << 40)
	if !ok || ev.a != 6 {
		t.Fatalf("tie-broken calendar event: got %v (ok=%v), want 6", ev.a, ok)
	}
	if _, ok := e.pop(1 << 40); ok {
		t.Fatal("queue should be empty")
	}
}
