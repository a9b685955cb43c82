package sim

import (
	"testing"
	"unsafe"
)

// tickHandler reschedules itself a fixed distance ahead: the steady-state
// shape of every hardware model's fast path (schedule one, fire one).
type tickHandler struct {
	e    *Engine
	left int
}

func (h *tickHandler) Fire() {
	if h.left == 0 {
		return
	}
	h.left--
	h.e.ScheduleAfter(10, h)
}

// BenchmarkEngine measures raw schedule/fire throughput on the Handler
// fast path. Every row must report 0 allocs/op; ci.sh greps for it, and
// TestScheduleZeroAlloc pins the same contract as a test.
func BenchmarkEngine(b *testing.B) {
	// Standing populations of self-rescheduling handlers: 4 is where
	// nearly every fire of the paper and overlap-isa workloads sits, 512
	// covers the faults workload's queue before its timers moved to lanes
	// (a mean of 116 pending at a fire, peak near 1000, most of them
	// retransmission timeouts), and 64 keeps the original row comparable
	// with earlier measurements. The lane rows hold the same populations
	// in one fixed-delay lane, as the faults workload's timers are held.
	b.Run("ScheduleFire", func(b *testing.B) { benchScheduleFire(b, 64) })
	b.Run("ScheduleFireDepth4", func(b *testing.B) { benchScheduleFire(b, 4) })
	b.Run("ScheduleFireDepth512", func(b *testing.B) { benchScheduleFire(b, 512) })
	b.Run("LaneFireDepth4", func(b *testing.B) { benchLaneFire(b, 4) })
	b.Run("LaneFireDepth512", func(b *testing.B) { benchLaneFire(b, 512) })

	b.Run("ClosureAtFire", func(b *testing.B) {
		// The closure path: the fn is preallocated, so the queue itself
		// must still not allocate.
		e := NewEngine()
		n := 0
		var fn func()
		fn = func() {
			if n < b.N {
				n++
				e.After(10, fn)
			}
		}
		e.After(0, fn)
		b.ReportAllocs()
		b.ResetTimer()
		for e.Step() {
		}
	})
}

// BenchmarkEngineCold measures push throughput into a deep heap: b.N
// events scheduled at descending times, then drained.
func BenchmarkEngineCold(b *testing.B) {
	e := NewEngine()
	h := &tickHandler{e: e}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(b.N-i), h)
	}
	for e.Step() {
	}
}

// benchScheduleFire fires b.N events with depth self-rescheduling
// handlers always pending, so the heap works at that depth throughout.
func benchScheduleFire(b *testing.B, depth int) {
	e := NewEngine()
	handlers := make([]*tickHandler, depth)
	for i := range handlers {
		handlers[i] = &tickHandler{e: e, left: b.N}
		e.Schedule(Time(i), handlers[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	for i := range handlers {
		handlers[i].left = 0
	}
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// laneTick reschedules itself on its lane: a timer re-armed at a fixed
// delay.
type laneTick struct {
	l    *Lane
	left int
}

func (h *laneTick) Fire() {
	if h.left == 0 {
		return
	}
	h.left--
	h.l.Schedule(h)
}

// benchLaneFire fires b.N events with depth self-rescheduling handlers
// always pending in one lane of delay 10.
func benchLaneFire(b *testing.B, depth int) {
	e := NewEngine()
	l := e.Lane(10)
	handlers := make([]*laneTick, depth)
	for i := range handlers {
		handlers[i] = &laneTick{l: l, left: b.N}
		l.Schedule(handlers[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	for i := range handlers {
		handlers[i].left = 0
	}
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// TestEventIs32Bytes pins the queue entry size: time, sequence number
// and Handler. Heap sifts copy whole entries, so the size is the
// per-event cost every workload pays.
func TestEventIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("sizeof(event) = %d bytes, want 32", got)
	}
}

// TestScheduleZeroAlloc is the allocation guard for the scheduling path:
// Schedule, At with a preallocated closure, Lane.Schedule, and Step
// firing all three must not touch the heap once the queue and the lane
// have their capacity.
func TestScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &tickHandler{e: e}
	fn := func() {}
	l := e.Lane(3)
	for i := 0; i < 8; i++ {
		e.Schedule(0, h) // grow the queue's backing array up front
		l.Schedule(h)    // and the lane's ring
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		now := e.Now()
		e.Schedule(now+1, h)
		e.At(now+2, fn)
		l.Schedule(h)
		l.Schedule(h)
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("scheduling path allocates: %.1f allocs/op", allocs)
	}
}
