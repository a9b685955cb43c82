// Pacing: deterministic simulated-time observation points that do not
// perturb the simulation.
//
// A Pacer is a passive observer with a schedule of deadlines. The engine
// consults it before firing each event: when the next pending event's
// timestamp reaches a deadline D, every event strictly before D has
// fired and nothing at or after D has, so the Pacer sees the machine
// state exactly "at D". The cut is a pure function of the event order,
// so a paced observation is bit-identical run to run.
//
// Crucially the Pacer is NOT an event: it never enters the pending queue,
// never advances the clock, and never changes Fired(), MaxPending() or
// quiescence. Arming one therefore changes no simulated result.
package sim

// Pacer observes the simulation at deterministic simulated-time deadlines.
//
// Implementations must not schedule events, advance clocks, record a
// failure via Fail, or otherwise mutate simulation state from Pace. Pace
// runs between events, so it may read any machine state.
type Pacer interface {
	// NextDeadline returns the next simulated instant the pacer wants to
	// observe, or Forever when it has none.
	NextDeadline() Time

	// Pace observes the machine at deadline. head is the timestamp of the
	// earliest pending event (the instant that triggered the cut); it is
	// always >= deadline. Pace must advance NextDeadline past deadline, or
	// the engine abandons pacing for this cut to avoid livelock.
	Pace(deadline, head Time)
}

// SetPacer installs p as the engine's pacer (nil removes it). The pacer
// is wiring, not state: Reset keeps it installed.
func (e *Engine) SetPacer(p Pacer) { e.pacer = p }

// pace fires every pacer deadline <= head, guarding against a pacer that
// fails to advance.
func pace(p Pacer, head Time) {
	for {
		d := p.NextDeadline()
		if d > head {
			return
		}
		p.Pace(d, head)
		if nd := p.NextDeadline(); nd <= d {
			return // pacer refused to advance; bail out of this cut
		}
	}
}
