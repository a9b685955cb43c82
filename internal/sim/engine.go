// Package sim provides a deterministic discrete-event simulation engine.
//
// All hardware models in this repository (buses, FIFOs, routers, DMA
// engines, CPUs) advance a single shared clock owned by an Engine. Events
// scheduled for the same instant fire in scheduling order, so every run of
// a given workload is bit-for-bit reproducible.
//
// The pending-event queue is a hand-rolled 4-ary min-heap over a concrete
// slice of 32-byte entries: the firing time, the event's scheduling
// sequence number, and a Handler. Unlike container/heap, nothing crosses
// an interface boundary, so scheduling and firing allocate nothing: hot
// component models schedule pooled Handler values (see Schedule),
// closures ride through the same Handler path, and each heap step pays
// two compares on (at, seq). A 4-ary layout halves the tree depth of a
// binary heap and keeps sibling keys in adjacent cache lines, which
// measurably helps the pop-heavy access pattern of a discrete-event
// simulator.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Time is a simulated timestamp in picoseconds.
//
// Picoseconds keep bandwidth arithmetic exact: a 33 MB/s EISA burst moves
// one byte every 30303 ps, which would round badly in nanoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a timestamp later than any event a simulation will schedule.
const Forever Time = 1<<62 - 1

// Nanoseconds reports t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// PerByte returns the time to move n bytes at the given bytes/second rate.
// It rounds up so that a modeled channel never beats its rated bandwidth.
//
// The product n*Second does not fit in 64 bits once n exceeds ~9.2 MB, so
// the division is carried out on the 128-bit product via math/bits.
// Results beyond the representable timestamp range clamp to Forever.
func PerByte(bytesPerSecond int64, n int) Time {
	if bytesPerSecond <= 0 || n <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(n), uint64(Second))
	bps := uint64(bytesPerSecond)
	if hi >= bps {
		// Quotient would need more than 64 bits; far beyond Forever.
		return Forever
	}
	q, r := bits.Div64(hi, lo, bps)
	if r != 0 {
		q++
	}
	if q > uint64(Forever) {
		return Forever
	}
	return Time(q)
}

// Handler is a pre-allocated schedulable action. Component models on the
// simulation fast path implement it on pooled or embedded structs so that
// scheduling an event allocates nothing; converting a pointer to Handler
// never heap-allocates. One-shot or cold-path callers can keep using the
// closure-based At/After.
type Handler interface {
	Fire()
}

// funcEvent adapts a closure scheduled through At/After to Handler,
// so every event fires through the one Handler path. A func value is
// pointer-shaped: converting it to an interface does not allocate.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// event is one pending queue entry, 32 bytes: the firing time, the
// scheduling sequence number, and the action. A uint64 counter that
// grows by one per schedule never wraps in a run.
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// before reports the firing order: time-ordered, then scheduling-ordered
// within an instant.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator: a clock plus a pending-event queue.
// The zero value is ready to use at time zero.
type Engine struct {
	now        Time
	seq        uint64
	events     []event // 4-ary min-heap on (at, seq)
	fired      uint64
	maxPending int
	// bound/bounded track an active RunUntil window so synchronous
	// run-ahead components (the batched CPU interpreter) never advance
	// the clock past the window a caller asked for.
	bound   Time
	bounded bool
	// failure is the first fatal error a component raised through Fail
	// (a structured machine check). Drains stop at the event that
	// raised it and surface it instead of truncating silently.
	failure error
	// pacer, when non-nil, is consulted before each event fires (see
	// pacer.go). It observes but never perturbs; Reset keeps it wired.
	pacer Pacer
}

// NewEngine returns an Engine starting at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.events) }

// MaxPending returns the deepest the event queue has been since the
// engine was built or Reset: the simulation's peak concurrency.
func (e *Engine) MaxPending() int { return e.maxPending }

// Fail records a fatal component error (typically a
// *fault.MachineCheck). The first failure wins; later ones are
// discarded so the surfaced error names the root cause. Event handlers
// that raise a failure should also stop scheduling follow-up work —
// Fail does not unwind the current event.
func (e *Engine) Fail(err error) {
	if err != nil && e.failure == nil {
		e.failure = err
	}
}

// Failed returns the failure recorded by Fail, or nil.
func (e *Engine) Failed() error { return e.failure }

// NextEventAt returns the timestamp of the earliest pending event, or
// Forever when the queue is empty. Synchronous run-ahead components use
// it as their hazard horizon: they may consume time inline only up to
// (not through) the next scheduled event.
func (e *Engine) NextEventAt() Time {
	if len(e.events) == 0 {
		return Forever
	}
	return e.events[0].at
}

// RunBound returns the upper edge of the active RunUntil/RunFor window,
// or Forever outside one. A run-ahead component may advance the clock to
// RunBound but no further, preserving the per-event illusion that
// nothing happens after the window a caller asked for.
func (e *Engine) RunBound() Time {
	if !e.bounded {
		return Forever
	}
	return e.bound
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, funcEvent(fn)) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, funcEvent(fn)) }

// Schedule schedules h to fire at absolute time t. It is the
// allocation-free twin of At: h is typically a pooled struct or a pointer
// into an existing model object. Scheduling in the past panics. Events
// at the same instant fire in the order they were scheduled.
func (e *Engine) Schedule(t Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, h: h})
}

// ScheduleAfter schedules h to fire d after the current time.
func (e *Engine) ScheduleAfter(d Time, h Handler) { e.Schedule(e.now+d, h) }

// push appends ev and restores the heap invariant by sifting up.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	e.events = h
	if len(h) > e.maxPending {
		e.maxPending = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	root := h[0]
	last := len(h) - 1
	ev := h[last]
	h[last] = event{} // drop the Handler so fired events don't pin memory
	e.events = h[:last]
	if last > 0 {
		e.siftDown(ev)
	}
	return root
}

// siftDown places ev, displaced from the root, back into the heap.
func (e *Engine) siftDown(ev event) {
	h := e.events
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// Step fires the earliest pending event, advancing the clock to it.
// It reports false if no events are pending.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	if e.pacer != nil {
		pace(e.pacer, e.events[0].at)
	}
	ev := e.pop()
	e.now = ev.at
	e.fired++
	ev.h.Fire()
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t and then sets the clock to t.
// The window is published through RunBound while it runs (save/restore,
// so nested windows compose).
func (e *Engine) RunUntil(t Time) {
	prevBound, prevBounded := e.bound, e.bounded
	e.bound, e.bounded = t, true
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	e.bound, e.bounded = prevBound, prevBounded
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the clock by d, firing all events within the window.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// RunWhile fires events until cond() is false, no events remain, or a
// component recorded a failure through Fail. It reports whether cond
// became false (as opposed to running dry or failing; callers that can
// surface errors should check Failed on a false return).
func (e *Engine) RunWhile(cond func() bool) bool {
	for cond() {
		if e.failure != nil {
			return false
		}
		if !e.Step() {
			return false
		}
	}
	return true
}

// Advance moves the clock forward by d without firing events scheduled in
// the window. It is intended for synchronous component models (such as the
// CPU interpreter) that consume time inline; they must not skip over
// pending events, so Advance panics if one exists inside the window.
func (e *Engine) Advance(d Time) {
	target := e.now + d
	if len(e.events) > 0 && e.events[0].at < target {
		panic(fmt.Sprintf("sim: Advance(%v) would skip event at %v", d, e.events[0].at))
	}
	e.now = target
}

// AdvanceTo is Advance with an absolute target. Targets in the past are a
// no-op so that callers can harmlessly re-synchronize to a busy-until mark.
func (e *Engine) AdvanceTo(t Time) {
	if t <= e.now {
		return
	}
	e.Advance(t - e.now)
}

// ErrBudget reports that a bounded drain stopped because it hit its
// event budget while work was still pending — the simulation was
// truncated, not quiescent.
var ErrBudget = errors.New("sim: event budget exhausted before quiescence")

// Drain runs events until quiescent and panics if more than limit events
// fire, guarding tests against livelocked component models. A failure
// recorded through Fail also panics here; harnesses that can surface
// machine checks gracefully use DrainBudget instead.
func (e *Engine) Drain(limit uint64) {
	if err := e.DrainBudget(limit); err != nil {
		if errors.Is(err, ErrBudget) {
			panic(fmt.Sprintf("sim: Drain exceeded %d events; component livelock?", limit))
		}
		panic(err)
	}
}

// DrainBudget runs events until quiescent, or until limit events have
// fired, in which case it stops and returns an error wrapping ErrBudget
// instead of truncating silently. A failure recorded through Fail stops
// the drain at the event that raised it and is returned as-is (a
// *fault.MachineCheck, typically). Harnesses that can surface errors
// use it in place of Drain.
func (e *Engine) DrainBudget(limit uint64) error {
	if e.failure != nil {
		return e.failure
	}
	start := e.fired
	for e.Step() {
		if e.failure != nil {
			return e.failure
		}
		if e.fired-start > limit {
			return fmt.Errorf("%w (limit %d, %d still pending)", ErrBudget, limit, len(e.events))
		}
	}
	return nil
}

// Reset returns the engine to its initial state — time zero, no pending
// events, zeroed counters — while keeping the event queue's backing
// array, so a long-lived harness can run many simulations without
// rebuilding the engine. Pending events are discarded (their Handlers are
// dropped so they don't pin memory).
func (e *Engine) Reset() {
	clear(e.events)
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.maxPending = 0
	e.bound = 0
	e.bounded = false
	e.failure = nil
}
