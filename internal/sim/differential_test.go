package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEngine is a reference model of the event queue built on the boxed
// container/heap implementation the Engine replaced, ordered by the pair
// (at, seq). The differential test below drives random event workloads
// through both queues and requires identical firing orders, which is
// exactly the determinism contract every component model in this
// repository leans on: same-instant events fire in scheduling order.
type refEngine struct {
	seq    uint64
	events refEventHeap
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
}

func (e *refEngine) Schedule(t Time, h Handler) { e.At(t, h.Fire) }

func (e *refEngine) Run() {
	for len(e.events) > 0 {
		heap.Pop(&e.events).(refEvent).fn()
	}
}

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

// driveRandomWorkload schedules a randomized workload on s and returns
// the firing order. Each event is scheduled through a random one of At
// and Schedule at colliding timestamps. Fired events reschedule children
// pseudo-randomly — from an rng sequence consumed only in scheduling
// order, so both engines see the identical schedule requests in the
// identical causal order.
func driveRandomWorkload(s scheduler, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	nextID := 0
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		id := nextID
		nextID++
		// Draw this event's behavior up front so the draw order depends
		// only on scheduling order, which the test asserts is identical.
		children := 0
		if depth < 3 && rng.Intn(4) == 0 {
			children = 1 + rng.Intn(3)
		}
		delays := make([]Time, children)
		for i := range delays {
			delays[i] = Time(rng.Intn(50)) // deliberately collides timestamps
		}
		fn := func() {
			log = append(log, firing{id: id, at: at})
			for _, d := range delays {
				schedule(at+d, depth+1)
			}
		}
		if rng.Intn(2) == 0 {
			s.At(at, fn)
		} else {
			s.Schedule(at, &funcHandler{fn})
		}
	}
	for i := 0; i < 500; i++ {
		schedule(Time(rng.Intn(1000)), 0)
	}
	s.Run()
	return log
}

// TestDifferentialOrderingAgainstContainerHeap fires random workloads —
// heavy same-timestamp collisions, rescheduling from inside handlers —
// through the 4-ary heap and the container/heap reference on (at, seq),
// and requires bit-identical firing orders.
func TestDifferentialOrderingAgainstContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := driveRandomWorkload(NewEngine(), seed)
		want := driveRandomWorkload(&refEngine{}, seed)
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
