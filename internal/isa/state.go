package isa

// State is a CPU context snapshot, the unit a kernel saves and restores
// across a context switch. Nothing network-related appears here — the
// SHRIMP design needs no NIC state per process.
type State struct {
	R                  [8]uint32
	ZF, SF, CF, OF, DF bool
	EIP                int
	Prog               *Program
	KernelMode         bool
	RepActive          bool
	Halted             bool
	Started            bool
}

// Save snapshots the CPU context.
func (c *CPU) Save() State {
	return State{
		R:  c.R,
		ZF: c.ZF, SF: c.SF, CF: c.CF, OF: c.OF, DF: c.DF,
		EIP:        c.eip,
		Prog:       c.prog,
		KernelMode: c.kernelMode,
		RepActive:  c.repActive,
		Halted:     c.halted,
		Started:    c.started,
	}
}

// Restore loads a snapshot without scheduling execution; call Resume to
// continue running.
func (c *CPU) Restore(s State) {
	c.R = s.R
	c.ZF, c.SF, c.CF, c.OF, c.DF = s.ZF, s.SF, s.CF, s.OF, s.DF
	c.eip = s.EIP
	c.prog = s.Prog
	c.kernelMode = s.KernelMode
	c.repActive = s.RepActive
	c.halted = s.Halted
	c.started = s.Started
}

// Resume schedules the next step of a restored, runnable context.
func (c *CPU) Resume() {
	if c.started && !c.halted && !c.frozen {
		c.Eng.ScheduleAfter(0, c)
	}
}
