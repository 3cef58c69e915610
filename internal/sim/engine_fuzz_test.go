package sim

import (
	"encoding/binary"
	"testing"
)

// refEngine is the engine's specification: a flat list of pending events
// popped in (t, seq) order, with past schedules clamped to now.
type refEngine struct {
	now Time
	seq uint64
	evs []farEvent
}

func (r *refEngine) schedule(t Time, ev event) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.evs = append(r.evs, farEvent{t: t, seq: r.seq, ev: ev})
}

func (r *refEngine) pop(end Time) (event, bool) {
	if len(r.evs) == 0 {
		return event{}, false
	}
	first := 0
	for i := range r.evs {
		if r.evs[i].less(r.evs[first]) {
			first = i
		}
	}
	f := r.evs[first]
	if f.t > end {
		return event{}, false
	}
	r.evs = append(r.evs[:first], r.evs[first+1:]...)
	r.now = f.t
	return f.ev, true
}

// Fuzz step opcodes (op byte mod fuzzOps). Each step is three bytes: the
// opcode and a little-endian uint16 that decodes to an offset from now in
// [-64, 4*calSize].
const (
	fuzzSchedule     = iota // schedule at now + offset (negative: clamped)
	fuzzScheduleEdge        // schedule at now + calSize - 1 (last direct tick)
	fuzzScheduleOver        // schedule at now + calSize (first far tick)
	fuzzScheduleTie         // schedule at the previous schedule's time
	fuzzPop                 // pop(now + offset)
	fuzzOps
)

// FuzzEngineOrder drives both engine modes and the reference through the
// same schedule and pop steps and requires the same pop results, now and
// pending count after every step, then the same drain order.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		engines := []*engine{newTestEngine(false), newTestEngine(true)}
		var ref refEngine
		var lastT Time
		id := int32(0)
		for step := 0; len(data) >= 3; step++ {
			op := data[0] % fuzzOps
			off := Time(binary.LittleEndian.Uint16(data[1:3])%(4*calSize+65)) - 64
			data = data[3:]
			switch op {
			case fuzzPop:
				end := ref.now + off
				want, wantOK := ref.pop(end)
				for mode, e := range engines {
					got, ok := e.pop(end)
					if ok != wantOK || got != want {
						t.Fatalf("step %d mode %d: pop(%d) = %+v, %v; want %+v, %v", step, mode, end, got, ok, want, wantOK)
					}
				}
			default:
				switch op {
				case fuzzSchedule:
					lastT = ref.now + off
				case fuzzScheduleEdge:
					lastT = ref.now + calSize - 1
				case fuzzScheduleOver:
					lastT = ref.now + calSize
				} // fuzzScheduleTie keeps lastT
				id++
				ev := event{pi: id, a: -id, b: id * 3, kind: evKind(id % 19)}
				ref.schedule(lastT, ev)
				for _, e := range engines {
					e.schedule(lastT, ev)
				}
			}
			for mode, e := range engines {
				if e.now != ref.now || e.pending() != len(ref.evs) {
					t.Fatalf("step %d mode %d: now %d pending %d; want %d, %d", step, mode, e.now, e.pending(), ref.now, len(ref.evs))
				}
			}
		}
		for n := 0; ; n++ {
			want, wantOK := ref.pop(1 << 62)
			for mode, e := range engines {
				got, ok := e.pop(1 << 62)
				if ok != wantOK || got != want || e.now != ref.now {
					t.Fatalf("drain %d mode %d: %+v, %v at %d; want %+v, %v at %d", n, mode, got, ok, e.now, want, wantOK, ref.now)
				}
			}
			if !wantOK {
				return
			}
		}
	})
}
