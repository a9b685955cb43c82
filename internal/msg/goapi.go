package msg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/vm"
)

// Go-level message-passing API over mapped memory. These mirror the ISA
// routines of the evaluation (Figure 5 single buffering, Figure 6 double
// buffering, the §4.3 block sender) but are driven from Go so examples
// and integration tests can compose them without writing assembly. The
// protocols are identical: the same flags, the same mappings, the same
// hardware path.

// Endpoint names one side of a channel: a process on a node.
type Endpoint struct {
	Node *core.Node
	Proc *kernel.Process
}

// NewEndpoint creates a fresh process on the given node.
func NewEndpoint(n *core.Node) Endpoint {
	return Endpoint{Node: n, Proc: n.K.CreateProcess()}
}

// Channel is a single-buffered, one-way message channel (Figure 5): a
// send buffer mapped onto a receive buffer with automatic update, and a
// bidirectional nbytes flag that carries both "message present" and
// "buffer free".
type Channel struct {
	m          *core.Machine
	snd, rcv   Endpoint
	sBuf, rBuf vm.VAddr
	sFlag      vm.VAddr
	rFlag      vm.VAddr
	capacity   int
}

// NewChannel builds the channel with a buffer of the given page count.
func NewChannel(m *core.Machine, snd, rcv Endpoint, pages int) (*Channel, error) {
	c := &Channel{m: m, snd: snd, rcv: rcv, capacity: pages*phys.PageSize - 4}
	var err error
	if c.sBuf, err = snd.Proc.AllocPages(pages); err != nil {
		return nil, err
	}
	if c.rBuf, err = rcv.Proc.AllocPages(pages); err != nil {
		return nil, err
	}
	if c.sFlag, err = snd.Proc.AllocPages(1); err != nil {
		return nil, err
	}
	if c.rFlag, err = rcv.Proc.AllocPages(1); err != nil {
		return nil, err
	}
	_, fut := snd.Node.K.Map(snd.Proc, c.sBuf, pages*phys.PageSize,
		rcv.Node.ID, rcv.Proc.PID, c.rBuf, nipt.BlockedWriteAU)
	if err := m.Await(fut); err != nil {
		return nil, err
	}
	_, fut = snd.Node.K.Map(snd.Proc, c.sFlag, phys.PageSize,
		rcv.Node.ID, rcv.Proc.PID, c.rFlag, nipt.SingleWriteAU)
	if err := m.Await(fut); err != nil {
		return nil, err
	}
	_, fut = rcv.Node.K.Map(rcv.Proc, c.rFlag, phys.PageSize,
		snd.Node.ID, snd.Proc.PID, c.sFlag, nipt.SingleWriteAU)
	if err := m.Await(fut); err != nil {
		return nil, err
	}
	return c, nil
}

// await steps m until cond holds. In Survivable fault plans it also
// watches both endpoints' membership views: an endpoint declared dead
// can never set the flag being waited on, so the wait surfaces
// fault.ErrPeerDown promptly instead of spinning until the queues drain.
// what names the channel kind in the deadlock error.
func await(m *core.Machine, snd, rcv Endpoint, what string, cond func() bool) error {
	down := func() error {
		if snd.Node.K.PeerIsDown(rcv.Node.ID) {
			return fmt.Errorf("msg: %s to node %d: %w", what, rcv.Node.ID, fault.ErrPeerDown)
		}
		if rcv.Node.K.PeerIsDown(snd.Node.ID) {
			return fmt.Errorf("msg: %s from node %d: %w", what, snd.Node.ID, fault.ErrPeerDown)
		}
		return nil
	}
	ok := m.RunWhile(func() bool { return !cond() && down() == nil })
	if cond() {
		return nil
	}
	if err := down(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("msg: %s deadlock: nothing left to simulate", what)
	}
	return nil
}

// Send blocks (in simulated time) until the buffer is free, writes the
// message, and publishes its size.
func (c *Channel) Send(b []byte) error {
	if len(b) == 0 || len(b) > c.capacity {
		return fmt.Errorf("msg: message size %d outside (0,%d]", len(b), c.capacity)
	}
	flagClear := func() bool {
		v, err := c.snd.Node.UserRead32(c.snd.Proc, c.sFlag)
		return err == nil && v == 0
	}
	if err := await(c.m, c.snd, c.rcv, "channel", flagClear); err != nil {
		return err
	}
	if err := c.snd.Node.UserWriteBytes(c.snd.Proc, c.sBuf, b); err != nil {
		return err
	}
	return c.snd.Node.UserWrite32(c.snd.Proc, c.sFlag, uint32(len(b)))
}

// Recv blocks (in simulated time) for the next message, copies it out,
// and releases the buffer.
func (c *Channel) Recv() ([]byte, error) {
	var n uint32
	arrived := func() bool {
		v, err := c.rcv.Node.UserRead32(c.rcv.Proc, c.rFlag)
		if err != nil {
			return false
		}
		n = v
		return v != 0
	}
	if err := await(c.m, c.snd, c.rcv, "channel", arrived); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := c.rcv.Node.UserReadBytes(c.rcv.Proc, c.rBuf, out); err != nil {
		return nil, err
	}
	if err := c.rcv.Node.UserWrite32(c.rcv.Proc, c.rFlag, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// DoubleChannel is the Figure 6 double-buffered channel: two buffers
// toggled per message so the consumer of message i overlaps the
// transmission of message i+1 (loop case 3: all synchronization carried
// by messages).
type DoubleChannel struct {
	m        *core.Machine
	snd, rcv Endpoint
	sBuf     [2]vm.VAddr
	rBuf     [2]vm.VAddr
	sIdx     int
	rIdx     int
	capacity int
	pages    int
}

const dblFlagOff = phys.PageSize - 4 // flag is the last word of each buffer's final page

// NewDoubleChannel builds the two buffers (pages each) with
// complementary mappings so the consumed signal propagates back.
func NewDoubleChannel(m *core.Machine, snd, rcv Endpoint, pages int) (*DoubleChannel, error) {
	c := &DoubleChannel{m: m, snd: snd, rcv: rcv, pages: pages,
		capacity: pages*phys.PageSize - 4}
	for i := 0; i < 2; i++ {
		var err error
		if c.sBuf[i], err = snd.Proc.AllocPages(pages); err != nil {
			return nil, err
		}
		if c.rBuf[i], err = rcv.Proc.AllocPages(pages); err != nil {
			return nil, err
		}
		_, fut := snd.Node.K.Map(snd.Proc, c.sBuf[i], pages*phys.PageSize,
			rcv.Node.ID, rcv.Proc.PID, c.rBuf[i], nipt.BlockedWriteAU)
		if err := m.Await(fut); err != nil {
			return nil, err
		}
		_, fut = rcv.Node.K.Map(rcv.Proc, c.rBuf[i], pages*phys.PageSize,
			snd.Node.ID, snd.Proc.PID, c.sBuf[i], nipt.SingleWriteAU)
		if err := m.Await(fut); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *DoubleChannel) flagVA(buf vm.VAddr) vm.VAddr {
	return buf + vm.VAddr((c.pages-1)*phys.PageSize+dblFlagOff)
}

// Send writes into the current send buffer once its previous contents
// have been consumed, publishes the size flag, and toggles buffers.
func (c *DoubleChannel) Send(b []byte) error {
	if len(b) == 0 || len(b) > c.capacity {
		return fmt.Errorf("msg: message size %d outside (0,%d]", len(b), c.capacity)
	}
	buf := c.sBuf[c.sIdx]
	flag := c.flagVA(buf)
	free := func() bool {
		v, err := c.snd.Node.UserRead32(c.snd.Proc, flag)
		return err == nil && v == 0
	}
	if err := await(c.m, c.snd, c.rcv, "double channel", free); err != nil {
		return err
	}
	if err := c.snd.Node.UserWriteBytes(c.snd.Proc, buf, b); err != nil {
		return err
	}
	if err := c.snd.Node.UserWrite32(c.snd.Proc, flag, uint32(len(b))); err != nil {
		return err
	}
	c.sIdx ^= 1
	return nil
}

// Recv waits for the current receive buffer, copies the message out,
// clears the flag (which propagates back as the consumed signal), and
// toggles buffers.
func (c *DoubleChannel) Recv() ([]byte, error) {
	buf := c.rBuf[c.rIdx]
	flag := c.flagVA(buf)
	var n uint32
	arrived := func() bool {
		v, err := c.rcv.Node.UserRead32(c.rcv.Proc, flag)
		if err != nil {
			return false
		}
		n = v
		return v != 0
	}
	if err := await(c.m, c.snd, c.rcv, "double channel", arrived); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := c.rcv.Node.UserReadBytes(c.rcv.Proc, buf, out); err != nil {
		return nil, err
	}
	if err := c.rcv.Node.UserWrite32(c.rcv.Proc, flag, 0); err != nil {
		return nil, err
	}
	c.rIdx ^= 1
	return out, nil
}

// BlockSender drives §4.3 deliberate-update block transfers from Go: a
// region mapped deliberate-update plus its command pages.
type BlockSender struct {
	m        *core.Machine
	snd, rcv Endpoint
	sendVA   vm.VAddr
	recvVA   vm.VAddr
	pages    int
}

// NewBlockSender maps pages pages deliberate-update and grants the
// sender its command pages.
func NewBlockSender(m *core.Machine, snd, rcv Endpoint, pages int) (*BlockSender, error) {
	b := &BlockSender{m: m, snd: snd, rcv: rcv, pages: pages}
	var err error
	if b.sendVA, err = snd.Proc.AllocPages(pages); err != nil {
		return nil, err
	}
	if b.recvVA, err = rcv.Proc.AllocPages(pages); err != nil {
		return nil, err
	}
	_, fut := snd.Node.K.Map(snd.Proc, b.sendVA, pages*phys.PageSize,
		rcv.Node.ID, rcv.Proc.PID, b.recvVA, nipt.DeliberateUpdate)
	if err := m.Await(fut); err != nil {
		return nil, err
	}
	if err := snd.Node.K.GrantCommandPages(snd.Proc, b.sendVA, b.sendVA+CmdDelta, pages); err != nil {
		return nil, err
	}
	return b, nil
}

// Buffer returns the sender-side virtual address of the mapped region.
func (b *BlockSender) Buffer() vm.VAddr { return b.sendVA }

// RemoteBuffer returns the receiver-side virtual address.
func (b *BlockSender) RemoteBuffer() vm.VAddr { return b.recvVA }

// Write stages data into the mapped region (local memory only; nothing
// is transmitted until Send).
func (b *BlockSender) Write(off int, data []byte) error {
	return b.snd.Node.UserWriteBytes(b.snd.Proc, b.sendVA+vm.VAddr(off), data)
}

// Send issues deliberate-update transfer commands covering [off,
// off+nbytes), splitting at page boundaries as §4.3 requires, spinning
// (in simulated time) whenever the single DMA engine is busy.
func (b *BlockSender) Send(off, nbytes int) error {
	if off < 0 || nbytes <= 0 || off+nbytes > b.pages*phys.PageSize {
		return fmt.Errorf("msg: block send [%d,%d) outside region", off, off+nbytes)
	}
	for nbytes > 0 {
		chunk := phys.PageSize - off%phys.PageSize
		if chunk > nbytes {
			chunk = nbytes
		}
		cmdVA := b.sendVA + CmdDelta + vm.VAddr(off)
		tr, f := b.snd.Proc.AS.Translate(cmdVA, true)
		if f != nil {
			return f
		}
		words := uint32((chunk + 3) / 4)
		for {
			_, swapped, _ := b.snd.Node.LockedCmpxchg(tr.PA, 0, words)
			if swapped {
				break
			}
			if !b.m.Step() {
				return fmt.Errorf("msg: DMA engine wedged")
			}
		}
		off += chunk
		nbytes -= chunk
	}
	return nil
}

// Done reports whether the DMA engine has finished (the 2-instruction
// §4.3 status check).
func (b *BlockSender) Done() bool {
	tr, f := b.snd.Proc.AS.Translate(b.sendVA+CmdDelta, false)
	if f != nil {
		return false
	}
	return b.snd.Node.CacheRead32(tr.PA) == 0
}

// Read copies data out of the receiver-side region.
func (b *BlockSender) Read(off, n int) ([]byte, error) {
	out := make([]byte, n)
	err := b.rcv.Node.UserReadBytes(b.rcv.Proc, b.recvVA+vm.VAddr(off), out)
	return out, err
}
