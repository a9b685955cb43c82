package core

import (
	"fmt"

	"repro/internal/sim"
)

// Gang scheduling: machine-wide coordinated context switches, the
// policy the CM-5 *requires* for safe user-level communication (paper
// §1, §6). SHRIMP needs no such constraint — its protection is carried
// by physical page mappings — but providing the policy lets the same
// workload run under both regimes and demonstrates exactly that: under
// SHRIMP, gang scheduling is a performance choice, not a safety one.
type GangScheduler struct {
	m      *Machine
	slice  sim.Time
	active bool
	ticks  uint64
}

// StartGangScheduling begins coordinated round-robin across all nodes:
// at every slice boundary every node switches to its next runnable
// process at the same simulated instant. Each node must have had its
// processes queued with Kernel.AddRunnable.
func (m *Machine) StartGangScheduling(slice sim.Time) (*GangScheduler, error) {
	if slice <= 0 {
		return nil, fmt.Errorf("core: gang slice must be positive")
	}
	for _, n := range m.Nodes {
		if n.K.RunnableCount() == 0 {
			return nil, fmt.Errorf("core: node %d has no runnable processes", n.ID)
		}
	}
	g := &GangScheduler{m: m, slice: slice, active: true}
	g.switchAll()
	m.Eng.After(slice, g.tick)
	return g, nil
}

func (g *GangScheduler) tick() {
	if !g.active {
		return
	}
	g.ticks++
	g.switchAll()
	g.m.Eng.After(g.slice, g.tick)
}

func (g *GangScheduler) switchAll() {
	for _, n := range g.m.Nodes {
		n.K.Preempt()
	}
}

// Stop halts coordinated switching; current processes keep running.
func (g *GangScheduler) Stop() { g.active = false }

// Ticks returns the number of machine-wide switch rounds performed.
func (g *GangScheduler) Ticks() uint64 { return g.ticks }
