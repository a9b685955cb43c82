package msg

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/vm"
)

// Table 1 reproduction: each primitive is hand-written in the ISA with
// exactly the algorithm the paper describes, and the harness arranges
// the run the way the paper's measurements assume — spin loops find
// their condition already satisfied, per-byte copy costs are excluded,
// and data generation/consumption is application work.

// Overhead is one Table 1 row: measured instruction counts and the
// paper's reported values.
type Overhead struct {
	Name        string
	Source      uint64
	Dest        uint64
	PaperSource uint64
	PaperDest   uint64
}

// Total returns source+destination instructions.
func (o Overhead) Total() uint64 { return o.Source + o.Dest }

// PaperTotal returns the paper's total.
func (o Overhead) PaperTotal() uint64 { return o.PaperSource + o.PaperDest }

func (o Overhead) String() string {
	return fmt.Sprintf("%-28s %3d (%d+%d)   paper: %3d (%d+%d)",
		o.Name, o.Total(), o.Source, o.Dest, o.PaperTotal(), o.PaperSource, o.PaperDest)
}

// --- single buffering (Figure 5) ---

// singleBufSender: wait for the buffer to be free (nbytes==0), then
// publish the message size. The data itself was produced in place by the
// application.
const singleBufSender = `
send:
	mov	eax, [FLAG]	; spin until buffer free
	test	eax, eax
	jnz	send
	mov	eax, [PRIV]	; application's nbytes
	mov	[FLAG], eax	; publish: propagates to receiver
	hlt
`

// Wait: that is 5 instructions (3 spin + load size + store). The paper
// counts 4 for the sender; its sender has nbytes at hand (an immediate
// or register). We pass nbytes in EDX from the caller, matching that.
const singleBufSender4 = `
send:
	mov	eax, [FLAG]	; spin until buffer free
	test	eax, eax
	jnz	send
	mov	[FLAG], edx	; publish nbytes: propagates to receiver
	hlt
`

// singleBufReceiver: wait for nbytes!=0, hand the size to the
// application, consume in place, release the buffer.
const singleBufReceiver = `
recv:
	mov	eax, [FLAG]	; spin until message present
	test	eax, eax
	jz	recv
	mov	[PRIV], eax	; deliver nbytes to the application
	mov	dword [FLAG], 0	; release: propagates back to sender
	hlt
`

// singleBufReceiverCopy additionally copies the message out of the
// receive buffer (12 added instructions; REP iterations are the per-byte
// cost the paper excludes).
const singleBufReceiverCopy = `
recv:
	mov	eax, [FLAG]	; spin until message present
	test	eax, eax
	jz	recv
	mov	[PRIV], eax	; deliver nbytes to the application
	push	esi		; -- copy out: 12 instructions --
	push	edi
	push	ecx
	mov	esi, RBUF
	mov	edi, PRIVCOPY	; private copy area
	mov	ecx, eax
	add	ecx, 3
	shr	ecx, 2
	rep movsd
	pop	ecx
	pop	edi
	pop	esi		; -- end copy --
	mov	dword [FLAG], 0	; release the buffer
	hlt
`

// MeasureSingleBuffering runs the single-buffering primitive end to end
// on nodes 0 and 1 of a post-boot machine and returns its Table 1 row.
// withCopy selects the copying receiver.
func MeasureSingleBuffering(m *core.Machine, withCopy bool) Overhead {
	p := NewPair(m, 0, 1)
	_, rbuf := p.MapBuf("RBUF", 1, 1, nipt.SingleWriteAU)
	sflag, rflag := p.MapBuf("FLAG", 1, 1, nipt.SingleWriteAU)
	p.MapBack(sflag, rflag, 1, nipt.SingleWriteAU)
	p.RSyms["PRIVCOPY"] = p.RSyms["PRIV"] + 64
	p.Drain()

	// Application work: produce the message into the mapped send buffer
	// (propagates as it is written).
	payload := []byte("virtual memory mapped network interface!")
	sbuf := vm.VAddr(p.SSyms["RBUF"]) // sender-side address of the buffer
	p.WriteSender(sbuf, payload)

	sc := p.RunSender("singlebuf-send", singleBufSender4, "send",
		map[isa.Reg]uint32{isa.EDX: uint32(len(payload))})
	p.Drain()

	rsrc, name := singleBufReceiver, "single buffering"
	if withCopy {
		rsrc, name = singleBufReceiverCopy, "single buffering + copy"
	}
	rc := p.RunReceiver("singlebuf-recv", rsrc, "recv", nil)
	p.Drain()

	// Verify the message arrived and the flag round-tripped.
	if got := p.ReadReceiver(rbuf, len(payload)); !bytes.Equal(got, payload) {
		panic(fmt.Sprintf("msg: single buffering corrupted message: %q", got))
	}
	if nb := p.ReadReceiver(vm.VAddr(p.RSyms["PRIV"]), 4); int(nb[0]) != len(payload) {
		panic("msg: receiver did not see nbytes")
	}
	if fl := p.ReadSender(sflag, 4); !allZero(fl) {
		panic("msg: buffer-free flag did not propagate back to sender")
	}
	if withCopy {
		got := p.ReadReceiver(vm.VAddr(p.RSyms["PRIV"])+64, len(payload))
		if !bytes.Equal(got, payload) {
			panic(fmt.Sprintf("msg: copy-out corrupted message: %q", got))
		}
	}
	row := Overhead{Name: name, Source: sc.User, Dest: rc.User, PaperSource: 4, PaperDest: 5}
	if withCopy {
		row.PaperDest = 17
	}
	return row
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// --- double buffering (Figure 6) ---
//
// Two buffers per communication channel; the code toggles between them
// by flipping one address bit (the buffers are allocated 2-page
// aligned). The arrival flag is the last word of each buffer, written
// after the data so in-order delivery makes it a completion signal.

// flagOff is the in-buffer offset of the flag word.
const flagOff = phys.PageSize - 4

// Case 1: barrier synchronization between iterations guarantees both
// buffer states; the only per-message overhead is the pointer swap.
const doubleBufCase1Sender = `
send:
	xor	esi, TOGGLE	; swap send-buffer pointer
	hlt
`

const doubleBufCase1Receiver = `
recv:
	xor	edi, TOGGLE	; swap receive-buffer pointer
	hlt
`

// Case 2: the receiver uses this iteration's data, so it spins on the
// arrival flag; the sender's buffer is free by barrier.
const doubleBufCase2Sender = `
send:
	mov	eax, [PRIV]	; application's nbytes
	mov	[esi+FLAGOFF], eax
	xor	esi, TOGGLE
	hlt
`

const doubleBufCase2Receiver = `
recv:
	mov	eax, [edi+FLAGOFF]
	test	eax, eax
	jz	recv
	mov	dword [edi+FLAGOFF], 0	; local clear for the next lap
	xor	edi, TOGGLE
	hlt
`

// Case 3: no barrier at all — messages carry all synchronization. The
// sender also waits for its previous contents to be consumed (the
// receiver's flag clear propagates back on the complementary mapping).
const doubleBufCase3Sender = `
send:
	mov	eax, [esi+FLAGOFF]
	test	eax, eax
	jnz	send		; wait until previous contents consumed
	mov	[esi+FLAGOFF], edx
	xor	esi, TOGGLE
	hlt
`

const doubleBufCase3Receiver = `
recv:
	mov	eax, [edi+FLAGOFF]
	test	eax, eax
	jz	recv
	mov	dword [edi+FLAGOFF], 0	; consume: propagates back to sender
	xor	edi, TOGGLE
	hlt
`

// MeasureDoubleBuffering measures loop case 1, 2 or 3 on nodes 0 and 1
// of a post-boot machine.
func MeasureDoubleBuffering(m *core.Machine, loopCase int) Overhead {
	p := NewPair(m, 0, 1)
	sbuf, rbuf := p.MapBuf("BUF", 2, 2, nipt.SingleWriteAU)
	if loopCase == 3 {
		// Complementary mapping so the consumed signal propagates back.
		p.MapBack(sbuf, rbuf, 2, nipt.SingleWriteAU)
	}
	p.SSyms["TOGGLE"] = phys.PageSize
	p.RSyms["TOGGLE"] = phys.PageSize
	p.SSyms["FLAGOFF"] = flagOff
	p.RSyms["FLAGOFF"] = flagOff
	p.Drain()

	payload := []byte("double-buffered payload")
	p.WriteSender(sbuf, payload)

	var ssrc, rsrc string
	var paperS, paperD uint64
	switch loopCase {
	case 1:
		ssrc, rsrc, paperS, paperD = doubleBufCase1Sender, doubleBufCase1Receiver, 1, 1
	case 2:
		ssrc, rsrc, paperS, paperD = doubleBufCase2Sender, doubleBufCase2Receiver, 3, 5
	case 3:
		ssrc, rsrc, paperS, paperD = doubleBufCase3Sender, doubleBufCase3Receiver, 5, 5
	default:
		panic("msg: double buffering has loop cases 1..3")
	}
	if loopCase == 2 {
		// nbytes comes from application memory in this variant.
		p.WriteSender(vm.VAddr(p.SSyms["PRIV"]), []byte{byte(len(payload)), 0, 0, 0})
	}

	sc := p.RunSender("doublebuf-send", ssrc, "send", map[isa.Reg]uint32{
		isa.ESI: uint32(sbuf),
		isa.EDX: uint32(len(payload)),
	})
	p.Drain()
	rc := p.RunReceiver("doublebuf-recv", rsrc, "recv", map[isa.Reg]uint32{
		isa.EDI: uint32(rbuf),
	})
	p.Drain()

	if loopCase != 1 {
		if got := p.ReadReceiver(rbuf, len(payload)); !bytes.Equal(got, payload) {
			panic(fmt.Sprintf("msg: double buffering corrupted message: %q", got))
		}
		if fl := p.ReadReceiver(rbuf+flagOff, 4); !allZero(fl) {
			panic("msg: receiver flag not cleared")
		}
	}
	if loopCase == 3 {
		if fl := p.ReadSender(sbuf+flagOff, 4); !allZero(fl) {
			panic("msg: consumed signal did not propagate back")
		}
	}
	return Overhead{
		Name:        fmt.Sprintf("double buffering (case %d)", loopCase),
		Source:      sc.User,
		Dest:        rc.User,
		PaperSource: paperS,
		PaperDest:   paperD,
	}
}

// --- deliberate-update transfer (§4.3) ---

// deliberateSend is the send macro: compute the command address and word
// count, check for the page-crossing case, and initiate with a locked
// CMPXCHG until accepted. 13 instructions on the simplest (single-page)
// path.
const deliberateSend = `
dsend:
	mov	edi, esi	; command address = data address + delta
	add	edi, CMDDELTA
	mov	ecx, ebx	; word count = ceil(nbytes/4)
	add	ecx, 3
	shr	ecx, 2
	mov	edx, esi	; does the transfer cross a page boundary?
	and	edx, 4095
	add	edx, ebx
	cmp	edx, 4096
	ja	dsend_multi
retry:
	xor	eax, eax
	lock cmpxchg [edi], ecx	; read status; if engine free, start
	jnz	retry
	hlt

dsend_multi:
	; Page-crossing transfers issue a series of single-page commands;
	; preparing the next command overlaps the running DMA (§5.2).
	mov	edx, 4096	; bytes that fit in the current page
	mov	eax, esi
	and	eax, 4095
	sub	edx, eax
	mov	ecx, edx
	shr	ecx, 2		; words this round
multi_retry:
	xor	eax, eax
	lock cmpxchg [edi], ecx
	jnz	multi_retry
	add	esi, edx	; advance to the next page while DMA runs
	add	edi, edx
	sub	ebx, edx
	jz	multi_done	; transfer ended exactly on a page boundary
	mov	edx, esi
	and	edx, 4095
	add	edx, ebx
	cmp	edx, 4096
	ja	dsend_multi
	mov	ecx, ebx	; final partial page
	add	ecx, 3
	shr	ecx, 2
final_retry:
	xor	eax, eax
	lock cmpxchg [edi], ecx
	jnz	final_retry
multi_done:
	hlt
`

// deliberateCheck is the 2-instruction completion test: a command-page
// read returns 0 iff the DMA engine is idle.
const deliberateCheck = `
dcheck:
	mov	eax, [edi]
	test	eax, eax
	hlt
`

// MeasureDeliberateUpdate measures the single-page deliberate-update
// send (13 instructions) plus the completion check (2) on nodes 0 and 1
// of a post-boot machine.
func MeasureDeliberateUpdate(m *core.Machine) Overhead {
	p := NewPair(m, 0, 1)
	sbuf, rbuf := p.MapBuf("DBUF", 1, 1, nipt.DeliberateUpdate)
	p.GrantCmd(sbuf, 1)
	p.Drain()

	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	p.WriteSender(sbuf, payload)
	p.Drain()

	sc := p.RunSender("deliberate-send", deliberateSend, "dsend", map[isa.Reg]uint32{
		isa.ESI: uint32(sbuf),
		isa.EBX: uint32(len(payload)),
	})
	p.Drain() // DMA completes

	cc := p.RunSender("deliberate-check", deliberateCheck, "dcheck", map[isa.Reg]uint32{
		isa.EDI: uint32(sbuf) + CmdDelta,
	})
	p.Drain()
	if !p.S.CPU.ZF {
		panic("msg: deliberate-update completion check found engine busy after drain")
	}
	if got := p.ReadReceiver(rbuf, len(payload)); !bytes.Equal(got, payload) {
		panic("msg: deliberate update corrupted message")
	}
	return Overhead{
		Name:        "deliberate-update transfer",
		Source:      sc.User + cc.User,
		Dest:        0,
		PaperSource: 15,
		PaperDest:   0,
	}
}

// MeasureTable1 produces every row of Table 1 (csend/crecv rows come
// from the nx2 files), each on a fresh machine booted from cfg.
func MeasureTable1(cfg core.Config) []Overhead {
	return []Overhead{
		MeasureSingleBuffering(core.New(cfg), false),
		MeasureSingleBuffering(core.New(cfg), true),
		MeasureDoubleBuffering(core.New(cfg), 1),
		MeasureDoubleBuffering(core.New(cfg), 2),
		MeasureDoubleBuffering(core.New(cfg), 3),
		MeasureDeliberateUpdate(core.New(cfg)),
		MeasureNX2(core.New(cfg)),
	}
}
