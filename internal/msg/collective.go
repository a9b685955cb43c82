package msg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/vm"
)

// Collective operations over mapped memory. The paper's §7 notes the
// memory-mapped model is connection-oriented: a page maps to exactly one
// destination, so one-to-many patterns need either multiple buffers or
// forwarding. The barrier takes the first shape: per-participant
// mappings through a root.

// Barrier synchronizes N participants with automatic-update flag words:
// arrival slots mapped participant→root and a release word mapped
// root→participant, generation-numbered so the barrier is reusable.
type Barrier struct {
	m       *core.Machine
	parts   []Endpoint
	root    Endpoint
	gen     uint32
	arrive  vm.VAddr   // root page: one word per participant
	notify  []vm.VAddr // root pages mapped out to each participant
	release []vm.VAddr // participant-side release words
	local   []vm.VAddr // participant-side arrival source words
}

// NewBarrier builds a barrier across the given endpoints; the first is
// the root. Every endpoint must be on a distinct node (mappings are
// cross-node).
func NewBarrier(m *core.Machine, parts []Endpoint) (*Barrier, error) {
	if len(parts) < 2 {
		return nil, fmt.Errorf("msg: barrier needs at least 2 participants")
	}
	b := &Barrier{m: m, parts: parts, root: parts[0]}
	var err error
	if b.arrive, err = b.root.Proc.AllocPages(1); err != nil {
		return nil, err
	}
	for i, p := range parts {
		if i == 0 {
			// The root participates locally: its arrival slot and
			// release word are plain local memory.
			b.local = append(b.local, b.arrive+vm.VAddr(4*i))
			rel, err := p.Proc.AllocPages(1)
			if err != nil {
				return nil, err
			}
			b.notify = append(b.notify, 0)
			b.release = append(b.release, rel)
			continue
		}
		// Arrival: one word of a participant page maps onto the root's
		// arrive page at this participant's slot. Whole-page mappings
		// with a shift place slot i at the participant's word 0... the
		// hardware maps page→page, so each participant maps its page
		// onto the root's arrive page and writes to offset 4*i.
		src, err := p.Proc.AllocPages(1)
		if err != nil {
			return nil, err
		}
		_, fut := p.Node.K.Map(p.Proc, src, phys.PageSize,
			b.root.Node.ID, b.root.Proc.PID, b.arrive, nipt.SingleWriteAU)
		if err := m.Await(fut); err != nil {
			return nil, err
		}
		b.local = append(b.local, src+vm.VAddr(4*i))

		// Release: a root page per participant maps onto the
		// participant's release page (one destination per page — the
		// connection-oriented constraint).
		note, err := b.root.Proc.AllocPages(1)
		if err != nil {
			return nil, err
		}
		rel, err := p.Proc.AllocPages(1)
		if err != nil {
			return nil, err
		}
		_, fut = b.root.Node.K.Map(b.root.Proc, note, phys.PageSize,
			p.Node.ID, p.Proc.PID, rel, nipt.SingleWriteAU)
		if err := m.Await(fut); err != nil {
			return nil, err
		}
		b.notify = append(b.notify, note)
		b.release = append(b.release, rel)
	}
	return b, nil
}

// Sync runs one barrier round for all participants and returns when
// every participant has been released. (The caller drives all simulated
// processes; their per-participant work happens between Syncs.)
func (b *Barrier) Sync() error {
	b.gen++
	gen := b.gen
	// Every participant announces arrival through its mapping (the root
	// writes its own slot locally).
	for i, p := range b.parts {
		if err := p.Node.UserWrite32(p.Proc, b.local[i], gen); err != nil {
			return err
		}
	}
	// Root waits for all slots.
	allArrived := func() bool {
		for i := range b.parts {
			v, err := b.root.Node.UserRead32(b.root.Proc, b.arrive+vm.VAddr(4*i))
			if err != nil || v != gen {
				return false
			}
		}
		return true
	}
	if ok := b.m.RunWhile(func() bool { return !allArrived() }); !ok && !allArrived() {
		return fmt.Errorf("msg: barrier deadlock waiting for arrivals")
	}
	// Root releases everyone.
	for i, p := range b.parts {
		if i == 0 {
			if err := p.Node.UserWrite32(p.Proc, b.release[0], gen); err != nil {
				return err
			}
			continue
		}
		if err := b.root.Node.UserWrite32(b.root.Proc, b.notify[i], gen); err != nil {
			return err
		}
	}
	released := func() bool {
		for i, p := range b.parts {
			v, err := p.Node.UserRead32(p.Proc, b.release[i])
			if err != nil || v != gen {
				return false
			}
		}
		return true
	}
	if ok := b.m.RunWhile(func() bool { return !released() }); !ok && !released() {
		return fmt.Errorf("msg: barrier deadlock waiting for release")
	}
	return nil
}

// Generation returns the completed barrier round count.
func (b *Barrier) Generation() uint32 { return b.gen }
