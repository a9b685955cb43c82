package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEngine is a reference model of the event queue built on the boxed
// container/heap implementation the Engine replaced, ordered by the
// unpacked triple (at, dom, seq) and tracking the current domain the
// same way the Engine does. The differential test below drives random
// event workloads through both queues and requires identical firing
// orders and firing domains, which is exactly the determinism contract
// every component model in this repository leans on.
type refEngine struct {
	now    Time
	seq    uint64
	cur    Domain
	events refEventHeap
	fired  uint64
}

type refEvent struct {
	at  Time
	dom Domain
	seq uint64
	fn  func()
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].dom != h[j].dom {
		return h[i].dom < h[j].dom
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

func (e *refEngine) AtDom(d Domain, t Time, fn func()) {
	e.seq++
	heap.Push(&e.events, refEvent{at: t, dom: d, seq: e.seq, fn: fn})
}

func (e *refEngine) At(t Time, fn func())                    { e.AtDom(e.cur, t, fn) }
func (e *refEngine) Schedule(t Time, h Handler)              { e.AtDom(e.cur, t, h.Fire) }
func (e *refEngine) ScheduleDom(d Domain, t Time, h Handler) { e.AtDom(d, t, h.Fire) }
func (e *refEngine) Cur() Domain                             { return e.cur }

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(refEvent)
	e.now = ev.at
	e.cur = ev.dom
	e.fired++
	ev.fn()
	return true
}

func (e *refEngine) Run() {
	for e.Step() {
	}
}

// firing is one observed event execution: which logical event fired, at
// what simulated time, in which domain, as the k-th firing overall.
type firing struct {
	id  int
	at  Time
	dom Domain
}

// scheduler abstracts the two engines for the differential driver.
type scheduler interface {
	At(t Time, fn func())
	AtDom(d Domain, t Time, fn func())
	Schedule(t Time, h Handler)
	ScheduleDom(d Domain, t Time, h Handler)
	Cur() Domain // domain of the event firing now
	Run()
}

type newEngineAdapter struct{ *Engine }

func (a newEngineAdapter) Cur() Domain { return a.cur }

// funcHandler is a closure behind a pointer Handler, so the random
// workload can reach Schedule and ScheduleDom with the same per-event
// bodies.
type funcHandler struct{ fn func() }

func (h *funcHandler) Fire() { h.fn() }

// diffDomains is the pool the random workload draws explicit domains from:
// the harness, several nodes (adjacent and far apart) and the hub.
var diffDomains = []Domain{DomHost, DomNode(0), DomNode(1), DomNode(2), DomNode(7), DomNode(255), DomHub}

// driveRandomWorkload schedules a randomized workload on s and returns
// the firing order. Each event is scheduled through a random one of At,
// AtDom, Schedule and ScheduleDom, so explicit domains and inherited ones
// (At and Schedule from inside a handler take the firing event's domain)
// mix at colliding timestamps. Fired events reschedule children
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
			log = append(log, firing{id: id, at: at, dom: s.Cur()})
			for _, d := range delays {
				schedule(at+d, depth+1)
			}
		}
		dom := diffDomains[rng.Intn(len(diffDomains))]
		switch rng.Intn(4) {
		case 0:
			s.At(at, fn)
		case 1:
			s.AtDom(dom, at, fn)
		case 2:
			s.Schedule(at, &funcHandler{fn})
		default:
			s.ScheduleDom(dom, at, &funcHandler{fn})
		}
	}
	for i := 0; i < 500; i++ {
		schedule(Time(rng.Intn(1000)), 0)
	}
	s.Run()
	return log
}

// TestDifferentialOrderingAgainstContainerHeap fires random workloads —
// heavy same-timestamp collisions across domains, rescheduling from
// inside handlers with inherited and explicit domains — through the
// 4-ary heap on packed keys and the container/heap reference on
// (at, dom, seq), and requires bit-identical firing orders and domains.
func TestDifferentialOrderingAgainstContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := driveRandomWorkload(newEngineAdapter{NewEngine()}, seed)
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
