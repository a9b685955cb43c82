package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEngine is a reference model of the event queue built on the boxed
// container/heap implementation the Engine replaced, ordered by the pair
// (at, seq), with no head slot. The differential tests below drive
// random event workloads through both queues and require identical
// firing orders, which is exactly the determinism contract every
// component model in this repository leans on: same-instant events fire
// in scheduling order. It models the clock and counters too, for
// FuzzEngineMatchesReference.
type refEngine struct {
	now        Time
	seq        uint64
	events     refEventHeap
	fired      uint64
	maxPending int
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

func (e *refEngine) At(t Time, fn func()) {
	e.seq++
	heap.Push(&e.events, refEvent{at: t, seq: e.seq, fn: fn})
	e.maxPending = max(e.maxPending, len(e.events))
}

func (e *refEngine) Schedule(t Time, h Handler) { e.At(t, h.Fire) }

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(refEvent)
	e.now = ev.at
	e.fired++
	ev.fn()
	return true
}

func (e *refEngine) Run() {
	for e.Step() {
	}
}

func (e *refEngine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	e.now = max(e.now, t)
}

func (e *refEngine) NextEventAt() Time {
	if len(e.events) == 0 {
		return Forever
	}
	return e.events[0].at
}

// Advance has no guard: FuzzEngineMatchesReference calls it only where
// the Engine must not panic.
func (e *refEngine) Advance(d Time) { e.now += d }

func (e *refEngine) Reset() { *e = refEngine{events: e.events[:0]} }

func (e *refEngine) Now() Time       { return e.now }
func (e *refEngine) Fired() uint64   { return e.fired }
func (e *refEngine) Pending() int    { return len(e.events) }
func (e *refEngine) MaxPending() int { return e.maxPending }

// firing is one observed event execution: which logical event fired and
// at what simulated time.
type firing struct {
	id int
	at Time
}

// scheduler abstracts the two engines for the differential driver.
type scheduler interface {
	At(t Time, fn func())
	Schedule(t Time, h Handler)
	Run()
}

// funcHandler is a closure behind a pointer Handler, so the random
// workload can reach At and Schedule with the same per-event bodies.
type funcHandler struct{ fn func() }

func (h *funcHandler) Fire() { h.fn() }

// laneDelays are the delays of the lanes the differential and fuzz
// drivers schedule on; one is zero.
var laneDelays = [...]Time{0, 3, 9}

// driveRandomWorkload schedules a randomized workload on s and returns
// the firing order. Each event is scheduled through a random one of At,
// Schedule and lane (which schedules h d after now on the lane of delay
// d) at colliding timestamps. Fired events reschedule children
// pseudo-randomly — from an rng sequence consumed only in scheduling
// order, so both engines see the identical schedule requests in the
// identical causal order.
func driveRandomWorkload(s scheduler, lane func(d Time, h Handler), seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	nextID := 0
	// draw picks a scheduling path (0 At, 1 Schedule, 2 and up the lane
	// of laneDelays[path-2]) and a delay: any for At and Schedule, the
	// lane's own for a lane.
	draw := func(spread int) (path int, d Time) {
		path = rng.Intn(2 + len(laneDelays))
		if path >= 2 {
			return path, laneDelays[path-2]
		}
		return path, Time(rng.Intn(spread)) // deliberately collides timestamps
	}
	type child struct {
		path int
		d    Time
	}
	var schedule func(at Time, path, depth int)
	schedule = func(at Time, path, depth int) {
		id := nextID
		nextID++
		// Draw this event's behavior up front so the draw order depends
		// only on scheduling order, which the test asserts is identical.
		children := 0
		if depth < 3 && rng.Intn(4) == 0 {
			children = 1 + rng.Intn(3)
		}
		kids := make([]child, children)
		for i := range kids {
			kids[i].path, kids[i].d = draw(50)
		}
		fn := func() {
			log = append(log, firing{id: id, at: at})
			for _, k := range kids {
				schedule(at+k.d, k.path, depth+1)
			}
		}
		switch path {
		case 0:
			s.At(at, fn)
		case 1:
			s.Schedule(at, &funcHandler{fn})
		default:
			lane(laneDelays[path-2], &funcHandler{fn})
		}
	}
	for i := 0; i < 500; i++ {
		path, at := draw(1000) // the clock is at zero
		schedule(at, path, 0)
	}
	s.Run()
	return log
}

// TestDifferentialOrderingAgainstContainerHeap fires random workloads —
// heavy same-timestamp collisions, rescheduling from inside handlers,
// lane timers among plain events — through the Engine and the
// container/heap reference on (at, seq), and requires bit-identical
// firing orders.
func TestDifferentialOrderingAgainstContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e, r := NewEngine(), &refEngine{}
		got := driveRandomWorkload(e, func(d Time, h Handler) { e.Lane(d).Schedule(h) }, seed)
		want := driveRandomWorkload(r, func(d Time, h Handler) { r.Schedule(r.now+d, h) }, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d diverged: %+v vs reference %+v",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialHandlerMatchesClosure checks that Schedule (the
// Handler fast path) interleaves with At exactly by scheduling order.
type recordingHandler struct {
	log *[]int
	id  int
}

func (r *recordingHandler) Fire() { *r.log = append(*r.log, r.id) }

func TestDifferentialHandlerMatchesClosure(t *testing.T) {
	e := NewEngine()
	var log []int
	e.At(10, func() { log = append(log, 0) })
	e.Schedule(10, &recordingHandler{&log, 1})
	e.At(10, func() { log = append(log, 2) })
	e.Schedule(5, &recordingHandler{&log, 3})
	e.Run()
	want := []int{3, 0, 1, 2}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("order %v, want %v", log, want)
		}
	}
}
