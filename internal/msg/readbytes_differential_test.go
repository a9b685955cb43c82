package msg

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/nic"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// recvPerByte is Channel.Recv with the message copied out by the
// per-byte reference: one page-table walk and one one-byte cache load
// per byte, under the receiving node's event domain. Node.UserReadBytes
// (per page translation through the micro-TLB, per line cache reads)
// must be indistinguishable from it.
func recvPerByte(c *Channel) ([]byte, error) {
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
	node := c.rcv.Node
	out := make([]byte, n)
	prev := node.Eng.EnterDomain(sim.DomNode(int(node.ID)))
	for i := range out {
		tr, f := c.rcv.Proc.AS.Translate(c.rBuf+vm.VAddr(i), false)
		if f != nil {
			return nil, f
		}
		v, _ := node.Cache.Load(tr.PA, 1)
		out[i] = byte(v)
	}
	node.Eng.EnterDomain(prev)
	if err := node.UserWrite32(c.rcv.Proc, c.rFlag, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// A Channel exchange must be bit-identical whether the receiver copies
// messages out with UserReadBytes or with the per-byte reference: same
// bytes, same simulated clock and event count, and the same cache and
// bus statistics on every node. Message sizes cover sub-line, unaligned
// tails, and a two-page buffer crossing its page boundary.
func TestChannelRecvMatchesPerByteReference(t *testing.T) {
	type side struct {
		m      *core.Machine
		fwd    *Channel // node 0 -> node 3
		back   *Channel // node 3 -> node 0
		recvFn func(*Channel) ([]byte, error)
	}
	build := func(recv func(*Channel) ([]byte, error)) *side {
		m := core.New(core.ConfigFor(2, 2, nic.GenEISAPrototype))
		// Hand out every other frame from the top half of memory, so a
		// buffer's consecutive virtual pages are not physically adjacent
		// and a read across the page boundary must translate again.
		for _, n := range m.Nodes {
			var free []phys.PageNum
			for f := m.Cfg.MemPagesPerNode - 2; f >= m.Cfg.MemPagesPerNode/2; f -= 2 {
				free = append(free, phys.PageNum(f))
			}
			n.K.SetFreePages(free)
		}
		a, b := NewEndpoint(m.Node(0)), NewEndpoint(m.Node(3))
		fwd, err := NewChannel(m, a, b, 2)
		if err != nil {
			t.Fatal(err)
		}
		back, err := NewChannel(m, b, a, 2)
		if err != nil {
			t.Fatal(err)
		}
		return &side{m: m, fwd: fwd, back: back, recvFn: recv}
	}
	fast := build((*Channel).Recv)
	ref := build(recvPerByte)

	sizes := []int{1, 3, 31, 32, 33, 100, 1027, 4093, 4100, 8188}
	for i, n := range sizes {
		msg := make([]byte, n)
		for j := range msg {
			msg[j] = byte(i*131 + j*7)
		}
		var got [2][]byte
		for k, s := range []*side{fast, ref} {
			if err := s.fwd.Send(msg); err != nil {
				t.Fatalf("send %d bytes: %v", n, err)
			}
			b, err := s.recvFn(s.fwd)
			if err != nil {
				t.Fatalf("recv %d bytes: %v", n, err)
			}
			// Echo it back so both directions read through the cache.
			if err := s.back.Send(b); err != nil {
				t.Fatalf("echo %d bytes: %v", n, err)
			}
			if got[k], err = s.recvFn(s.back); err != nil {
				t.Fatalf("echo recv %d bytes: %v", n, err)
			}
		}
		if !bytes.Equal(got[0], msg) || !bytes.Equal(got[1], msg) {
			t.Fatalf("%d-byte message corrupted", n)
		}
		if fast.m.Now() != ref.m.Now() || fast.m.Fired() != ref.m.Fired() {
			t.Fatalf("after %d bytes: now %v fired %d, per-byte reference now %v fired %d",
				n, fast.m.Now(), fast.m.Fired(), ref.m.Now(), ref.m.Fired())
		}
		for id := range fast.m.Nodes {
			fn, rn := fast.m.Node(id), ref.m.Node(id)
			if fn.Cache.Stats() != rn.Cache.Stats() {
				t.Fatalf("after %d bytes: node %d cache stats\nUserReadBytes: %+v\nper byte:      %+v",
					n, id, fn.Cache.Stats(), rn.Cache.Stats())
			}
			if fn.Xbus.Stats() != rn.Xbus.Stats() {
				t.Fatalf("after %d bytes: node %d bus stats\nUserReadBytes: %+v\nper byte:      %+v",
					n, id, fn.Xbus.Stats(), rn.Xbus.Stats())
			}
		}
	}
	if err := fast.m.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}
	if err := ref.m.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}
	if fast.m.Now() != ref.m.Now() || fast.m.Fired() != ref.m.Fired() {
		t.Fatalf("drained: now %v fired %d, per-byte reference now %v fired %d",
			fast.m.Now(), fast.m.Fired(), ref.m.Now(), ref.m.Fired())
	}
}
