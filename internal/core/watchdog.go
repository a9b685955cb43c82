package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The progress watchdog: a sim.Pacer that inspects the metrics registry
// at a fixed simulated cadence and converts the ways a fault plan can
// wedge the machine — reliable-delivery retry storms against a dead
// peer, Outgoing-FIFO drains that stopped draining, a workload that
// blew through its quiescence deadline — into a structured
// *fault.MachineCheck raised through the engine's failure surface,
// instead of letting the run spin to the event budget (or, for harness
// polling loops, hang outright). Like the flight recorder it observes
// but never perturbs: a watchdog that does not trip changes no
// simulated result.

// DefaultWatchdogWindows is how many consecutive check intervals a
// pathology must persist before the watchdog trips.
const DefaultWatchdogWindows = 3

// WatchdogConfig arms the progress watchdog. The zero value disables
// it. Comparable, so it can ride Config.
type WatchdogConfig struct {
	// Interval is the check cadence in simulated time; <= 0 disables
	// the watchdog.
	Interval sim.Time
	// Windows is the number of consecutive intervals a pathology must
	// persist before tripping (<= 0 selects DefaultWatchdogWindows).
	Windows int
	// StallBytes is the Outgoing-FIFO occupancy at or above which a
	// node that sent nothing for a full window counts as stalled
	// (<= 0 selects the NIC's OutThreshold).
	StallBytes int
	// Deadline, when positive, is the simulated instant by which the
	// workload must have quiesced; the first check at or after it trips
	// CheckDeadline.
	Deadline sim.Time
	// Rearm, when set, lets the watchdog fire more than once per run:
	// after a trip it keeps checking, waits for recovery (a packet
	// delivery anywhere), then re-arms with fresh baselines and a
	// recorder mark instead of disarming until Reset. Useful in
	// Survivable fault plans, where a retry storm against a crashing
	// peer resolves itself once the failure detector declares the peer
	// dead and the run continues. The deadline check never re-arms, and
	// the failure surface still keeps only the first machine check.
	Rearm bool
}

// watchdog holds the per-window progress baselines. All state lives in
// preallocated slices; checks run at pacing cuts.
type watchdog struct {
	m        *Machine
	interval sim.Time
	windows  int
	stall    int64
	deadline sim.Time

	next    sim.Time
	tripped bool
	rearm   bool // WatchdogConfig.Rearm
	await   bool // tripped re-armably; waiting for a delivery to re-arm

	prevIn    uint64   // machine-total packets delivered
	prevRetr  []uint64 // per-node rel-retransmits
	prevOut   []uint64 // per-node packets-out
	stallRuns []int    // consecutive stalled windows per node
	stormRuns int      // consecutive windows without a delivery
	stormNode int      // first node that retransmitted since the last delivery (-1: none)
}

func newWatchdog(m *Machine, cfg WatchdogConfig) *watchdog {
	n := m.Cfg.NodeCount()
	win := cfg.Windows
	if win <= 0 {
		win = DefaultWatchdogWindows
	}
	stall := int64(cfg.StallBytes)
	if stall <= 0 {
		stall = int64(m.Cfg.NIC.OutThreshold)
	}
	return &watchdog{
		m:         m,
		interval:  cfg.Interval,
		windows:   win,
		stall:     stall,
		deadline:  cfg.Deadline,
		rearm:     cfg.Rearm,
		next:      cfg.Interval,
		prevRetr:  make([]uint64, n),
		prevOut:   make([]uint64, n),
		stallRuns: make([]int, n),
		stormNode: -1,
	}
}

// NextDeadline implements sim.Pacer. A tripped watchdog stops checking:
// the machine check is already on the failure surface.
func (w *watchdog) NextDeadline() sim.Time {
	if w.tripped {
		return sim.Forever
	}
	return w.next
}

// Pace implements sim.Pacer.
func (w *watchdog) Pace(deadline, head sim.Time) {
	w.next = deadline + w.interval
	w.check(deadline)
}

// trip records the machine check on the machine's failure surface and
// pins a mark to the flight recorder timeline (if one is armed).
func (w *watchdog) trip(mc *fault.MachineCheck) {
	if w.rearm && mc.Kind != fault.CheckDeadline {
		// Re-armable trip: keep checking, but hold further pathology
		// detection until the machine shows recovery, so one wedge
		// trips once rather than once per window.
		w.await = true
		w.stormRuns = 0
		w.stormNode = -1
		clear(w.stallRuns)
	} else {
		w.tripped = true
	}
	w.m.Rec.MarkAt(mc.At, "watchdog: "+mc.Kind.String())
	w.m.Eng.Fail(mc)
}

// check inspects one window. Ordering matters for determinism only in
// that at most one check trips (the first in the fixed sequence below);
// everything read is the registry at the cut.
func (w *watchdog) check(at sim.Time) {
	if w.deadline > 0 && at >= w.deadline {
		w.trip(&fault.MachineCheck{Node: -1, Kind: fault.CheckDeadline, At: at,
			Detail: fmt.Sprintf("simulation still running past watchdog deadline %v", w.deadline)})
		return
	}
	reg := w.m.Obs
	in := reg.Total(obs.CtrPacketsIn)
	if w.await {
		// Tripped re-armably: watch only for recovery. On the first
		// delivery, refresh every baseline so the pathology counters
		// restart from the recovered state.
		if in != w.prevIn {
			w.await = false
			w.m.Rec.MarkAt(at, "watchdog: re-armed")
			for id := range w.prevRetr {
				w.prevRetr[id] = reg.Node(id).Counter(obs.CtrRelRetransmits)
			}
			for id := range w.prevOut {
				w.prevOut[id] = reg.Node(id).Counter(obs.CtrPacketsOut)
			}
		}
		w.prevIn = in
		return
	}
	delivered := in != w.prevIn
	w.prevIn = in

	// Retry storm: `windows` consecutive intervals in which not one
	// packet was delivered anywhere, while some sender retransmitted
	// since the last delivery. (Per-window retransmit checks would miss
	// storms once exponential backoff stretches the retry gap past the
	// check interval.)
	for id := range w.prevRetr {
		r := reg.Node(id).Counter(obs.CtrRelRetransmits)
		if r != w.prevRetr[id] && w.stormNode < 0 {
			w.stormNode = id
		}
		w.prevRetr[id] = r
	}
	if delivered {
		w.stormRuns = 0
		w.stormNode = -1
	} else if w.stormNode >= 0 {
		w.stormRuns++
		if w.stormRuns >= w.windows {
			w.trip(&fault.MachineCheck{Node: w.stormNode, Kind: fault.CheckRetryStorm, At: at,
				Detail: fmt.Sprintf("retransmissions but not a single delivery across %d consecutive %v checks",
					w.windows, w.interval)})
			return
		}
	}

	// FIFO stall: a node holding at/above the stall threshold that sent
	// nothing for `windows` consecutive intervals.
	for id := range w.stallRuns {
		s := reg.Node(id)
		out := s.Counter(obs.CtrPacketsOut)
		stalled := s.Gauge(obs.GaugeOutFIFOBytes) >= w.stall && out == w.prevOut[id]
		w.prevOut[id] = out
		if !stalled {
			w.stallRuns[id] = 0
			continue
		}
		w.stallRuns[id]++
		if w.stallRuns[id] >= w.windows {
			w.trip(&fault.MachineCheck{Node: id, Kind: fault.CheckFIFOStall, At: at,
				Detail: fmt.Sprintf("outgoing FIFO held >= %d bytes with no packet sent for %d consecutive %v checks",
					w.stall, w.windows, w.interval)})
			return
		}
	}
}

// reset returns the watchdog to its just-built state in place.
func (w *watchdog) reset() {
	if w == nil {
		return
	}
	w.next = w.interval
	w.tripped = false
	w.await = false
	w.prevIn = 0
	clear(w.prevRetr)
	clear(w.prevOut)
	clear(w.stallRuns)
	w.stormRuns = 0
	w.stormNode = -1
}
