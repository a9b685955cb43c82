package fault

import (
	"fmt"

	"repro/internal/sim"
)

// CheckKind classifies a MachineCheck.
type CheckKind uint8

const (
	// CheckOutFIFOOverflow: a packet arrived at a full Outgoing FIFO.
	// The §4 threshold interrupt normally makes this impossible; it
	// means the configured headroom cannot absorb in-flight traffic.
	CheckOutFIFOOverflow CheckKind = iota
	// CheckInFIFOHeadroom: an accepted worm overran the Incoming FIFO.
	CheckInFIFOHeadroom
	// CheckRetryBudget: a reliable-delivery sender exhausted its retry
	// budget without an acknowledgement — the destination is dead or
	// the path is unusable.
	CheckRetryBudget
	// CheckRingCorrupt: a kernel message-ring record failed its length
	// sanity or (in fault mode) CRC check. The control plane requires
	// reliable delivery.
	CheckRingCorrupt
	// CheckNoEndpoint: a worm arrived at a mesh coordinate with no
	// attached endpoint (a wiring error, surfaced instead of panicking).
	CheckNoEndpoint
	numCheckKinds
)

var checkKindNames = [...]string{
	"outgoing-fifo-overflow",
	"incoming-fifo-headroom",
	"retry-budget-exhausted",
	"kernel-ring-corrupt",
	"no-endpoint",
}

// Compile-time guards: checkKindNames lists exactly numCheckKinds names.
const _ = uint(int(numCheckKinds) - len(checkKindNames))

var _ = checkKindNames[numCheckKinds-1]

func (k CheckKind) String() string {
	if int(k) < len(checkKindNames) {
		return checkKindNames[k]
	}
	return "check(?)"
}

// MachineCheck is a structured, fatal hardware error. Components raise
// it through sim.Engine.Fail instead of panicking; it surfaces to the
// harness from Machine.RunUntilIdle / Settle / Await, carrying enough
// context to report which node failed, how, and when.
type MachineCheck struct {
	Node   int
	Kind   CheckKind
	At     sim.Time
	Detail string
}

func (e *MachineCheck) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("machine check: node %d: %v at %v", e.Node, e.Kind, e.At)
	}
	return fmt.Sprintf("machine check: node %d: %v at %v: %s", e.Node, e.Kind, e.At, e.Detail)
}
