package sim

import (
	"testing"
	"unsafe"
)

// TestEventIs32Bytes pins the queue entry size: time, packed key and
// Handler. Heap sifts copy whole entries, so the size is the per-event
// cost every workload pays.
func TestEventIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("sizeof(event) = %d bytes, want 32", got)
	}
}

// seqBoundaryRun starts e's sequence counter at seq0 and schedules
// events that collide in (at, dom) across every domain class. Each
// reschedules a child through At, which inherits its domain, and two
// through ScheduleDom, one in its own domain and one in a domain from the
// pool. It returns the firing log with each event's domain.
func seqBoundaryRun(e *Engine, seq0 uint64) []firing {
	e.seq = seq0
	doms := []Domain{DomHost, DomNode(0), DomNode(1), DomHub}
	var log []firing
	nextID := 0
	var add func(d Domain, at Time, depth int)
	add = func(d Domain, at Time, depth int) {
		id := nextID
		nextID++
		e.ScheduleDom(d, at, &funcHandler{func() {
			log = append(log, firing{id: id, at: e.Now(), dom: e.cur})
			if depth == 2 {
				return
			}
			cid := nextID
			nextID++
			e.At(e.Now()+5, func() {
				log = append(log, firing{id: cid, at: e.Now(), dom: e.cur})
			})
			add(e.cur, e.Now()+5, depth+1)
			add(doms[id%len(doms)], e.Now()+5, depth+1)
		}})
	}
	for i := 0; i < 12; i++ {
		add(doms[i%len(doms)], 10, 0)
	}
	e.Run()
	return log
}

// TestSeqRenumberAtFieldLimit runs the same colliding workload from a
// sequence counter a few events below the seq field's limit and from
// zero. Crossing the limit renumbers the pending events; firing order
// and firing domains must not change.
func TestSeqRenumberAtFieldLimit(t *testing.T) {
	want := seqBoundaryRun(NewEngine(), 0)
	e := NewEngine()
	got := seqBoundaryRun(e, seqMask-6)
	if len(got) != len(want) {
		t.Fatalf("fired %d events across the seq limit, %d from zero", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d across the seq limit: %+v, from zero: %+v", i, got[i], want[i])
		}
	}
	if e.seq >= seqMask {
		t.Fatalf("seq = %d after the run, want renumbered below the limit %d", e.seq, seqMask)
	}
}

// TestScheduleOutsideDomainFieldPanics: a domain the packed key cannot
// hold panics at scheduling time, as a past timestamp does.
func TestScheduleOutsideDomainFieldPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	h := &tickHandler{e: e}
	e.ScheduleDom(DomHub, 1, h) // the top of the field is legal
	mustPanic("ScheduleDom(DomHub+1)", func() { e.ScheduleDom(DomHub+1, 1, h) })
	mustPanic("AtDom(-1)", func() { e.AtDom(-1, 1, func() {}) })
	e.EnterDomain(DomHub + 1)
	mustPanic("Schedule after EnterDomain(DomHub+1)", func() { e.Schedule(1, h) })
	e.EnterDomain(DomHost)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after rejected schedules, want 1", e.Pending())
	}
}

// TestScheduleZeroAlloc is the allocation guard for the scheduling path:
// Schedule, ScheduleDom, At with a preallocated closure, and Step firing
// all of them must not touch the heap once the queue has its capacity.
func TestScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &tickHandler{e: e}
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.Schedule(0, h) // grow the queue's backing array up front
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		now := e.Now()
		e.Schedule(now+1, h)
		e.ScheduleDom(DomHub, now+1, h)
		e.At(now+2, fn)
		e.AtDom(DomNode(3), now+2, fn)
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("scheduling path allocates: %.1f allocs/op", allocs)
	}
}
