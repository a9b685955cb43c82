package msg

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/nipt"
	"repro/internal/phys"
)

func TestNX2MultipleMessages(t *testing.T) {
	// Several messages back to back: ring cursors, sequence numbers and
	// flow-control counters all advance; FIFO order holds.
	n := NewNX2Pair(newEISA(), 3)
	var sent [][]byte
	for i := 0; i < 6; i++ {
		payload := []byte(fmt.Sprintf("message number %d with body length variation %s",
			i, bytes.Repeat([]byte("x"), i*7)))
		sent = append(sent, payload)
		n.Csend(payload)
		n.Drain()
	}
	for i, want := range sent {
		_, got := n.Crecv(2048)
		n.Drain()
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: %q != %q", i, got, want)
		}
	}
}

func TestNX2InterleavedSendRecv(t *testing.T) {
	n := NewNX2Pair(newEISA(), 5)
	for i := 0; i < 12; i++ {
		want := []byte(fmt.Sprintf("interleaved %02d", i))
		n.Csend(want)
		n.Drain()
		_, got := n.Crecv(2048)
		n.Drain()
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d", i)
		}
	}
}

func TestNX2RingWrap(t *testing.T) {
	// Push enough bytes through the one-page ring that both sides take
	// the wrap path (each record is 12+payload, ring is 4096).
	n := NewNX2Pair(newEISA(), 7)
	payload := make([]byte, 700)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	for round := 0; round < 20; round++ {
		payload[0] = byte(round)
		n.Csend(payload)
		n.Drain()
		_, got := n.Crecv(2048)
		n.Drain()
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d corrupted after wrap", round)
		}
	}
}

func TestNX2CountsStableAcrossMessages(t *testing.T) {
	// The fast path costs the same for every message (73+78), message
	// after message — no hidden state growth.
	n := NewNX2Pair(newEISA(), 9)
	payload := []byte("steady state cost probe")
	for i := 0; i < 5; i++ {
		sc := n.Csend(payload)
		n.Drain()
		rc, _ := n.Crecv(2048)
		n.Drain()
		if sc.User != 73 || rc.User != 78 {
			t.Fatalf("message %d: %d+%d, want 73+78", i, sc.User, rc.User)
		}
	}
}

func TestBaselineSecondMessage(t *testing.T) {
	// The kernel-mediated baseline's buffer pool, queues and ring
	// cursors survive reuse.
	b := NewBaselinePair(newEISA())
	for i := 0; i < 4; i++ {
		want := []byte(fmt.Sprintf("baseline message %d", i))
		b.Csend(9, want)
		b.Drain()
		_, got := b.Crecv(9, 256)
		b.Drain()
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: %q", i, got)
		}
	}
}

func TestDeliberateMultiPageMacro(t *testing.T) {
	// The page-crossing branch of the §4.3 send macro.
	for _, size := range []int{4096, 5000, 8192, 12288} {
		counts, ok := measureMultiPageDeliberate(newEISA(), size)
		if !ok {
			t.Fatalf("size %d: data corrupted", size)
		}
		if counts.User < 13 {
			t.Fatalf("size %d: suspicious count %d", size, counts.User)
		}
	}
}

// measureMultiPageDeliberate runs the §4.3 send macro over a transfer
// of the given size from node 0 to node 1 of a post-boot machine. It
// returns the sender's instruction count and whether the receiver got
// the payload intact.
func measureMultiPageDeliberate(m *core.Machine, size int) (Counts, bool) {
	p := NewPair(m, 0, 1)
	pages := (size + phys.PageSize - 1) / phys.PageSize
	sbuf, rbuf := p.MapBuf("DBUF", pages, 1, nipt.DeliberateUpdate)
	p.GrantCmd(sbuf, pages)
	p.Drain()

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	p.WriteSender(sbuf, payload)
	p.Drain()

	// A transfer longer than one page takes the macro's page-crossing
	// branch.
	sc := p.RunSender("deliberate-send", deliberateSend, "dsend", map[isa.Reg]uint32{
		isa.ESI: uint32(sbuf),
		isa.EBX: uint32(size),
	})
	p.Drain()
	return sc, bytes.Equal(p.ReadReceiver(rbuf, size), payload)
}
