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
	opKinds
)

// fuzzWorld is one engine under test plus its firing log. Events are
// numbered in scheduling order, so two worlds that agree on the order
// of every schedule and fire give every event the same number.
type fuzzWorld struct {
	e      fuzzEngine
	log    []firing
	nextID int
}

// schedule adds an event at t through At or Schedule. kids is the fuzz
// byte shaping what the event schedules when it fires: bits 0-1 the
// number of children, bits 2-3 how many generations follow, bits 4-7
// the first child's delay (each later child one step further, all
// within 0..5, so children tie with one another and with pending
// events).
func (w *fuzzWorld) schedule(t Time, kids uint8, closure bool) {
	id := w.nextID
	w.nextID++
	fn := func() {
		now := w.e.Now()
		w.log = append(w.log, firing{id: id, at: now})
		gens := kids >> 2 & 3
		if gens == 0 {
			return
		}
		next := kids&^0x0c | (gens-1)<<2
		for i := uint8(0); i < kids&3; i++ {
			w.schedule(now+Time((kids>>4+i)%6), next, i%2 == 0)
		}
	}
	if closure {
		w.e.At(t, fn)
	} else {
		w.e.Schedule(t, &funcHandler{fn})
	}
}

// FuzzEngineMatchesReference decodes the input into a sequence of
// schedules (at small and large delays, on both scheduling paths, with
// children scheduled from inside handlers), Steps, RunUntils, legal
// Advances, Resets and Runs, applies it to an Engine and to the
// container/heap reference, and after every operation requires the same
// firings in the same order, and the same Now, Fired, Pending,
// MaxPending and NextEventAt. Small delays keep a handful of events
// pending, so the head slot fills, is displaced by a strictly earlier
// event, ties with a later schedule at its own instant, and is taken by
// Step, on most inputs.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 3*128 {
			in = in[:3*128]
		}
		got := &fuzzWorld{e: NewEngine()}
		want := &fuzzWorld{e: &refEngine{}}
		checked := 0 // firings already compared
		for step := 0; len(in) >= 3; step, in = step+1, in[3:] {
			kind, arg, kids := in[0]%opKinds, Time(in[1]), in[2]
			for _, w := range []*fuzzWorld{got, want} {
				now := w.e.Now()
				switch kind {
				case opAt, opSchedule:
					w.schedule(now+arg%8, kids, kind == opAt)
				case opScheduleF:
					w.schedule(now+arg*37, kids, false)
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
