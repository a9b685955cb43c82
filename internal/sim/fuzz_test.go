package sim

import (
	"fmt"
	"testing"
)

// fuzzEngine is the surface FuzzEngineMatchesReference drives on both
// the Engine and the container/heap reference.
type fuzzEngine interface {
	scheduler
	Step() bool
	RunUntil(t Time)
	Advance(d Time)
	Reset()
	Now() Time
	Fired() uint64
	Pending() int
	MaxPending() int
	NextEventAt() Time
}

// Fuzz operations, one per three input bytes: the kind, an argument and,
// for schedules, what the event schedules when it fires.
const (
	opAt        = iota // At (closure path), 0..7 after now
	opSchedule         // Schedule (Handler path), 0..7 after now
	opScheduleF        // Schedule, 0..255*37 after now
	opStep             // Step
	opRunUntil         // RunUntil, 0..15 after now
	opAdvance          // Advance by 0..15, where no pending event is skipped
	opReset            // Reset
	opRun              // Run to quiescence
	opLane             // Lane.Schedule on one of the three lanes
	opKinds
)

// fuzzWorld is one engine under test plus its firing log. Events are
// numbered in scheduling order, so two worlds that agree on the order
// of every schedule and fire give every event the same number.
type fuzzWorld struct {
	e fuzzEngine
	// lane schedules h d after now: on the Engine's lane of delay d, or
	// as a plain schedule on the reference.
	lane   func(d Time, h Handler)
	log    []firing
	nextID int
}

// newFuzzWorlds returns an Engine's world and the reference's.
func newFuzzWorlds() (got, want *fuzzWorld) {
	e, r := NewEngine(), &refEngine{}
	got = &fuzzWorld{e: e, lane: func(d Time, h Handler) { e.Lane(d).Schedule(h) }}
	want = &fuzzWorld{e: r, lane: func(d Time, h Handler) { r.Schedule(r.now+d, h) }}
	return got, want
}

// event numbers a new event and returns its body. kids is the fuzz byte
// shaping what the event schedules when it fires: bits 0-1 the number of
// children, bits 2-3 how many generations follow, bits 4-7 the first
// child's delay (each later child one step further, all within 0..5, so
// children tie with one another and with pending events). With bit 7
// set the children go to the lanes instead, the first to lane
// (bits 4-7) mod 3.
func (w *fuzzWorld) event(kids uint8) func() {
	id := w.nextID
	w.nextID++
	return func() {
		now := w.e.Now()
		w.log = append(w.log, firing{id: id, at: now})
		gens := kids >> 2 & 3
		if gens == 0 {
			return
		}
		next := kids&^0x0c | (gens-1)<<2
		for i := uint8(0); i < kids&3; i++ {
			k := kids>>4 + i
			switch {
			case kids&0x80 != 0:
				w.lane(laneDelays[k%3], &funcHandler{w.event(next)})
			case i%2 == 0:
				w.e.At(now+Time(k%6), w.event(next))
			default:
				w.e.Schedule(now+Time(k%6), &funcHandler{w.event(next)})
			}
		}
	}
}

// FuzzEngineMatchesReference decodes the input into a sequence of
// schedules (at small and large delays, on both scheduling paths and the
// three lanes, with children scheduled from inside handlers), Steps,
// RunUntils, legal Advances, Resets and Runs, applies it to an Engine
// and to the container/heap reference, and after every operation
// requires the same firings in the same order, and the same Now, Fired,
// Pending, MaxPending and NextEventAt. Small delays keep a handful of
// events pending, so the head slot fills, is displaced by a strictly
// earlier event, ties with a later schedule at its own instant, and is
// taken by Step, on most inputs; lane fronts take, displace and tie
// with the slot and the heap, and lane rings grow and are reset
// non-empty.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 3*128 {
			in = in[:3*128]
		}
		got, want := newFuzzWorlds()
		checked := 0 // firings already compared
		for step := 0; len(in) >= 3; step, in = step+1, in[3:] {
			kind, arg, kids := in[0]%opKinds, Time(in[1]), in[2]
			for _, w := range []*fuzzWorld{got, want} {
				now := w.e.Now()
				switch kind {
				case opAt:
					w.e.At(now+arg%8, w.event(kids))
				case opSchedule:
					w.e.Schedule(now+arg%8, &funcHandler{w.event(kids)})
				case opScheduleF:
					w.e.Schedule(now+arg*37, &funcHandler{w.event(kids)})
				case opStep:
					w.e.Step()
				case opRunUntil:
					w.e.RunUntil(now + arg%16)
				case opAdvance:
					// Legality is judged on the reference; an Engine that
					// disagrees panics here or diverges below.
					if d := arg % 16; want.e.Pending() == 0 || want.e.NextEventAt() >= now+d {
						w.e.Advance(d)
					}
				case opReset:
					w.e.Reset()
				case opRun:
					w.e.Run()
				case opLane:
					w.lane(laneDelays[arg%3], &funcHandler{w.event(kids)})
				}
			}
			compareWorlds(t, step, kind, checked, got, want)
			checked = len(want.log)
		}
	})
}

// compareWorlds fails the test unless the Engine's world matches the
// reference's after operation step. Firings before checked matched
// after an earlier operation.
func compareWorlds(t *testing.T, step int, kind uint8, checked int, got, want *fuzzWorld) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (op %d): %s", step, kind, fmt.Sprintf(format, args...))
	}
	if len(got.log) != len(want.log) {
		fail("%d events fired in all, reference %d", len(got.log), len(want.log))
	}
	for i := checked; i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			fail("firing %d is %+v, reference %+v", i, got.log[i], want.log[i])
		}
	}
	g, w := got.e, want.e
	if g.Now() != w.Now() || g.Fired() != w.Fired() || g.Pending() != w.Pending() ||
		g.MaxPending() != w.MaxPending() || g.NextEventAt() != w.NextEventAt() {
		fail("Now %v Fired %d Pending %d MaxPending %d NextEventAt %v; reference %v %d %d %d %v",
			g.Now(), g.Fired(), g.Pending(), g.MaxPending(), g.NextEventAt(),
			w.Now(), w.Fired(), w.Pending(), w.MaxPending(), w.NextEventAt())
	}
}
