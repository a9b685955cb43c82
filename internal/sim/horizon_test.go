package sim

import "testing"

// Horizon is the yield point for synchronous run-ahead (spin
// fast-forward, CPU batching) — a component that consumes time past it
// would fire over a pending event or escape the caller's run window.
// These tests pin its edge cases directly.

func TestHorizonEmptyQueue(t *testing.T) {
	e := NewEngine()
	if h := e.Horizon(); h != Forever {
		t.Fatalf("empty queue: Horizon() = %v, want Forever", h)
	}
	// An empty queue inside a bounded run yields the window edge.
	done := false
	e.At(5*Microsecond, func() {
		if h := e.Horizon(); h != 8*Microsecond {
			t.Errorf("bounded empty queue: Horizon() = %v, want 8us", h)
		}
		done = true
	})
	e.RunUntil(8 * Microsecond)
	if !done {
		t.Fatal("event did not fire")
	}
	if h := e.Horizon(); h != Forever {
		t.Fatalf("after bounded run: Horizon() = %v, want Forever", h)
	}
}

func TestHorizonEventAtNow(t *testing.T) {
	e := NewEngine()
	e.At(3*Microsecond, func() {})
	e.RunUntil(3 * Microsecond)
	if e.Now() != 3*Microsecond {
		t.Fatalf("Now() = %v, want 3us", e.Now())
	}
	// A pending event at exactly now: the horizon is now itself — zero
	// run-ahead allowance, not a negative or wrapped window.
	e.At(e.Now(), func() {})
	if h := e.Horizon(); h != e.Now() {
		t.Fatalf("event at now: Horizon() = %v, want %v", h, e.Now())
	}
}

func TestHorizonRunBoundInteraction(t *testing.T) {
	e := NewEngine()
	e.At(10*Microsecond, func() {}) // pending beyond every probe below
	var got []Time
	e.At(1*Microsecond, func() { got = append(got, e.Horizon()) })
	e.RunUntil(4 * Microsecond) // bound (4us) below next event (10us)
	e.RunUntil(20 * Microsecond)
	// Outside any window the queue is empty again.
	if h := e.Horizon(); h != Forever {
		t.Fatalf("after runs: Horizon() = %v, want Forever", h)
	}
	if len(got) != 1 || got[0] != 4*Microsecond {
		t.Fatalf("bounded probe = %v, want [4us]", got)
	}

	// The symmetric case: next event (2us) below the bound (30us).
	e2 := NewEngine()
	e2.At(2*Microsecond, func() {})
	var h2 Time
	e2.At(1*Microsecond, func() { h2 = e2.Horizon() })
	e2.RunUntil(30 * Microsecond)
	if h2 != 2*Microsecond {
		t.Fatalf("event-limited probe = %v, want 2us", h2)
	}
}
