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

// NX/2 csend/crecv on SHRIMP (§5.2): the standard Intel send/receive
// semantics — typed messages, FIFO dispatch per type, system-style
// buffering — implemented entirely at user level on mapped memory.
// Buffer management moves out of the kernel: the "system buffer" is a
// receiver-side ring that the sender's ring page maps onto, and the two
// flow-control counters (produced, consumed) travel on complementary
// single-word mappings. The paper restricts message types to 16-bit
// integers with a single sender per type; so does this implementation.
//
// Ring record: three header words (nbytes; type<<16|seq; header
// checksum) followed by the payload padded to a word. A produced-bytes
// counter published through the mapping tells the receiver when records
// are complete (in-order delivery makes the counter a watermark); a
// consumed-bytes counter mapped the other way gives the sender flow
// control.

// Channel struct offsets (private memory, one struct per channel).
const (
	chType  = 0  // message type
	chState = 4  // 1 = open
	chRing  = 8  // VA of the local ring page
	chCtl   = 12 // VA of the counter word we publish (mapped out)
	chMir   = 16 // VA of the counter word we watch (mapped in)
	chCount = 20 // local cumulative byte count (produced / consumed)
	chOff   = 24 // ring cursor
	chSeq   = 28 // next sequence number
	chStat  = 32 // messages sent/received
	chSize  = 64
)

// nx2Consts are the assembler symbols shared by both routines.
func nx2Consts(syms map[string]int64) {
	for k, v := range map[string]int64{
		"CH_TYPE": chType, "CH_STATE": chState, "CH_RING": chRing,
		"CH_CTL": chCtl, "CH_MIR": chMir, "CH_COUNT": chCount,
		"CH_OFF": chOff, "CH_SEQ": chSeq, "CH_STAT": chStat,
		"RINGSZ": phys.PageSize, "MAXMSG": 2048, "WRAPMARK": 0x7fffffff,
	} {
		syms[k] = v
	}
}

// nx2Csend: EAX = message type, ESI = user buffer, EBX = nbytes.
// Returns EAX = 0 on success. The fast path (open channel, space
// available, no ring wrap) is the measured Table 1 row.
const nx2Csend = `
csend:
	push	ebp			; 1  callee-saved state
	push	edi			; 2
	push	ecx			; 3
	push	edx			; 4
	cmp	ebx, MAXMSG		; 5  validate length
	ja	csend_err
	test	ebx, ebx		; 7  zero-length messages disallowed
	jz	csend_err
	test	esi, 3			; 9  buffer must be word aligned
	jnz	csend_err
	mov	edx, eax		; 11 channel lookup: hash type
	and	edx, 15			; 12
	shl	edx, 3			; 13
	add	edx, CHTAB		; 14
	cmp	eax, [edx]		; 15 verify type (hash hit)
	jne	csend_err
	mov	ebp, [edx+4]		; 17 channel struct
	mov	edx, [ebp+CH_STATE]	; 18 channel must be open
	cmp	edx, 1			; 19
	jne	csend_err
	mov	ecx, ebx		; 21 record size = 12 + round4(nbytes)
	add	ecx, 15			; 22
	and	ecx, -4			; 23
	mov	edi, [ebp+CH_MIR]	; 24 flow control: spin for ring space
csend_space:
	mov	edx, [edi]		; 25 consumed (arrives via mapping)
	mov	eax, [ebp+CH_COUNT]	; 26 produced
	sub	eax, edx		; 27 bytes in flight
	add	eax, ecx		; 28
	cmp	eax, RINGSZ		; 29
	ja	csend_space
	mov	edx, [ebp+CH_OFF]	; 31 ring wrap check
	mov	eax, edx		; 32
	add	eax, ecx		; 33
	cmp	eax, RINGSZ		; 34
	ja	csend_wrap
	mov	edi, [ebp+CH_RING]	; 36 record address
	add	edi, edx		; 37
	mov	[edi], ebx		; 38 header: nbytes
	mov	eax, [ebp+CH_SEQ]	; 39 header: type<<16 | seq
	and	eax, 65535		; 40
	mov	edx, [ebp+CH_TYPE]	; 41
	shl	edx, 16			; 42
	or	edx, eax		; 43
	mov	[edi+4], edx		; 44
	xor	edx, ebx		; 45 header checksum
	mov	[edi+8], edx		; 46
	mov	eax, [ebp+CH_SEQ]	; 47 bump sequence
	inc	eax			; 48
	mov	[ebp+CH_SEQ], eax	; 49
	add	edi, 12			; 50 copy payload into the ring
	mov	eax, ecx		; 51 (save record size)
	mov	ecx, ebx		; 52
	add	ecx, 3			; 53
	shr	ecx, 2			; 54
	cld				; 55 string direction discipline
	rep movsd			; 56 per-byte cost excluded
	mov	ecx, eax		; 56
	mov	edx, [ebp+CH_OFF]	; 57 advance cursor
	add	edx, ecx		; 58
	mov	[ebp+CH_OFF], edx	; 59
	mov	eax, [ebp+CH_COUNT]	; 60 advance produced count
	add	eax, ecx		; 61
	mov	[ebp+CH_COUNT], eax	; 62
	mov	edi, [ebp+CH_CTL]	; 63 publish: propagates to receiver
	mov	[edi], eax		; 64
	mov	eax, [ebp+CH_STAT]	; 65 statistics
	inc	eax			; 66
	mov	[ebp+CH_STAT], eax	; 67
	xor	eax, eax		; 68 success
	pop	edx			; 69
	pop	ecx			; 70
	pop	edi			; 71
	pop	ebp			; 72
	ret				; 73 (sentinel return: uncounted)
	hlt

csend_wrap:
	; Not enough room before the end of the ring: publish a wrap record
	; and restart at offset zero. (Slow path, unmeasured.)
	mov	edi, [ebp+CH_RING]
	add	edi, edx
	mov	dword [edi], WRAPMARK
	mov	eax, [ebp+CH_COUNT]
	mov	edx, RINGSZ
	sub	edx, [ebp+CH_OFF]
	add	eax, edx
	mov	[ebp+CH_COUNT], eax
	mov	edi, [ebp+CH_CTL]
	mov	[edi], eax
	mov	dword [ebp+CH_OFF], 0
	mov	edx, 0
	mov	eax, edx
	add	eax, ecx
	cmp	eax, RINGSZ
	ja	csend_err		; message larger than the ring
	mov	eax, [ebp+CH_TYPE]
	jmp	csend_resume

csend_resume:
	; Re-enter the fast path after the wrap (space was already checked
	; against total in-flight bytes, which includes the wrap filler).
	mov	edx, [ebp+CH_OFF]
	mov	edi, [ebp+CH_RING]
	add	edi, edx
	mov	[edi], ebx
	mov	eax, [ebp+CH_SEQ]
	and	eax, 65535
	mov	edx, [ebp+CH_TYPE]
	shl	edx, 16
	or	edx, eax
	mov	[edi+4], edx
	xor	edx, ebx
	mov	[edi+8], edx
	mov	eax, [ebp+CH_SEQ]
	inc	eax
	mov	[ebp+CH_SEQ], eax
	add	edi, 12
	mov	eax, ecx
	mov	ecx, ebx
	add	ecx, 3
	shr	ecx, 2
	rep movsd
	mov	ecx, eax
	mov	edx, [ebp+CH_OFF]
	add	edx, ecx
	mov	[ebp+CH_OFF], edx
	mov	eax, [ebp+CH_COUNT]
	add	eax, ecx
	mov	[ebp+CH_COUNT], eax
	mov	edi, [ebp+CH_CTL]
	mov	[edi], eax
	xor	eax, eax
	pop	edx
	pop	ecx
	pop	edi
	pop	ebp
	ret
	hlt

csend_err:
	mov	eax, -1
	pop	edx
	pop	ecx
	pop	edi
	pop	ebp
	ret
	hlt
`

// nx2Crecv: EAX = message type, EDI = user buffer, EBX = max bytes.
// Returns EAX = received byte count (or -1). Fast path: the message has
// arrived, matches the requested type, no wrap.
const nx2Crecv = `
crecv:
	push	ebp			; 1
	push	esi			; 2
	push	ecx			; 3
	push	edx			; 4
	cmp	ebx, MAXMSG		; 5  validate limit
	ja	crecv_err
	test	edi, 3			; 7  buffer alignment
	jnz	crecv_err
	mov	edx, eax		; 9  channel lookup
	and	edx, 15			; 10
	shl	edx, 3			; 11
	add	edx, CHTAB		; 12
	cmp	eax, [edx]		; 13
	jne	crecv_err
	mov	ebp, [edx+4]		; 15
	mov	edx, [ebp+CH_STATE]	; 16 channel open?
	cmp	edx, 1			; 17
	jne	crecv_err
	mov	esi, [ebp+CH_MIR]	; 19 wait for data: produced mirror
crecv_wait:
	mov	edx, [esi]		; 20 produced (arrives via mapping)
	mov	ecx, [ebp+CH_COUNT]	; 21 consumed
	cmp	edx, ecx		; 22
	je	crecv_wait		; 23 (at least a header present when !=)
	mov	edx, [ebp+CH_OFF]	; 24 record address
	mov	esi, [ebp+CH_RING]	; 25
	add	esi, edx		; 26
	mov	edx, [esi]		; 27 header: nbytes
	cmp	edx, WRAPMARK		; 28 wrap record?
	je	crecv_wrap
	test	edx, edx		; 30 sanity: length nonzero
	jz	crecv_err
	cmp	edx, ebx		; 32 fits the user buffer?
	ja	crecv_err
	mov	ecx, [esi+4]		; 32 header: type<<16|seq
	mov	eax, ecx		; 33
	shr	eax, 16			; 34 carried type
	cmp	eax, [ebp+CH_TYPE]	; 35 FIFO dispatch: type must match
	jne	crecv_err
	mov	eax, ecx		; 37 verify header checksum
	xor	eax, edx		; 38
	cmp	eax, [esi+8]		; 39
	jne	crecv_err
	mov	eax, ecx		; 41 verify sequence
	and	eax, 65535		; 42
	mov	ecx, [ebp+CH_SEQ]	; 43
	and	ecx, 65535		; 44
	cmp	eax, ecx		; 45
	jne	crecv_err
	mov	eax, [ebp+CH_SEQ]	; 47 bump expected sequence
	inc	eax			; 48
	mov	[ebp+CH_SEQ], eax	; 49
	push	edx			; 52 save nbytes across the copy
	mov	ecx, edx		; 53 copy out of the ring
	add	ecx, 3			; 54
	shr	ecx, 2			; 55
	add	esi, 12			; 56
	cld				; 57 string direction discipline
	rep movsd			; 58 per-byte cost excluded
	pop	edx			; 56
	mov	ecx, edx		; 57 record size = 12 + round4
	add	ecx, 15			; 58
	and	ecx, -4			; 59
	mov	eax, [ebp+CH_OFF]	; 60 advance cursor
	add	eax, ecx		; 61
	mov	[ebp+CH_OFF], eax	; 62
	mov	eax, [ebp+CH_COUNT]	; 63 advance consumed count
	add	eax, ecx		; 64
	mov	[ebp+CH_COUNT], eax	; 65
	mov	esi, [ebp+CH_CTL]	; 66 publish: flow control back
	mov	[esi], eax		; 67
	mov	eax, [ebp+CH_STAT]	; 68 statistics
	inc	eax			; 69
	mov	[ebp+CH_STAT], eax	; 70
	mov	eax, edx		; 71 return nbytes
	pop	edx			; 72
	pop	ecx			; 73
	pop	esi			; 74
	pop	ebp			; 75
	ret				; (sentinel: uncounted)
	hlt

crecv_wrap:
	; Consume the wrap filler and retry from offset zero.
	mov	eax, [ebp+CH_COUNT]
	mov	ecx, RINGSZ
	sub	ecx, [ebp+CH_OFF]
	add	eax, ecx
	mov	[ebp+CH_COUNT], eax
	mov	esi, [ebp+CH_CTL]
	mov	[esi], eax
	mov	dword [ebp+CH_OFF], 0
	mov	eax, [ebp+CH_TYPE]
	mov	esi, [ebp+CH_MIR]
	jmp	crecv_wait

crecv_err:
	mov	eax, -1
	pop	edx
	pop	ecx
	pop	esi
	pop	ebp
	ret
	hlt
`

// NX2Pair is a Pair with one NX/2 channel set up between the processes.
type NX2Pair struct {
	*Pair
	Type      uint32
	SendRing  vm.VAddr // sender-side ring page
	RecvRing  vm.VAddr // receiver-side ring page
	sChan     vm.VAddr // channel struct VAs
	rChan     vm.VAddr
	sPriv     vm.VAddr // user data staging areas
	rPriv     vm.VAddr
	csendProg *isa.Program
	crecvProg *isa.Program
}

// NewNX2Pair builds the channel: ring page sender→receiver, produced
// counter sender→receiver, consumed counter receiver→sender, channel
// structs and hash tables in private memory on both sides — on nodes 0
// and 1 of a post-boot machine.
func NewNX2Pair(m *core.Machine, msgType uint32) *NX2Pair {
	p := NewPair(m, 0, 1)
	nx2Consts(p.SSyms)
	nx2Consts(p.RSyms)
	n := &NX2Pair{Pair: p, Type: msgType}

	n.SendRing, n.RecvRing = p.MapBuf("RING", 1, 1, nipt.BlockedWriteAU)
	sctl, rctl := p.MapBuf("CTLPROD", 1, 1, nipt.SingleWriteAU) // produced →
	rcon, scon := func() (vm.VAddr, vm.VAddr) {                 // consumed ←
		rVA, err := p.PR.AllocPages(1)
		if err != nil {
			panic(err)
		}
		sVA, err := p.PS.AllocPages(1)
		if err != nil {
			panic(err)
		}
		p.M.MustMap(p.PR, rVA, phys.PageSize, p.S.ID, p.PS.PID, sVA, nipt.SingleWriteAU)
		return rVA, sVA
	}()
	p.Drain()

	// Per-side channel structs + hash tables + user staging, all in a
	// fresh private page each.
	var err error
	n.sChan, err = p.PS.AllocPages(1)
	if err != nil {
		panic(err)
	}
	n.rChan, err = p.PR.AllocPages(1)
	if err != nil {
		panic(err)
	}
	n.sPriv, err = p.PS.AllocPages(1)
	if err != nil {
		panic(err)
	}
	n.rPriv, err = p.PR.AllocPages(1)
	if err != nil {
		panic(err)
	}
	// Hash tables live in the same page as the struct, at +2048.
	sTab, rTab := n.sChan+2048, n.rChan+2048
	p.SSyms["CHTAB"] = int64(sTab)
	p.RSyms["CHTAB"] = int64(rTab)

	// Sender channel struct.
	sw := func(off uint32, v uint32) {
		if err := p.S.UserWrite32(p.PS, n.sChan+vm.VAddr(off), v); err != nil {
			panic(err)
		}
	}
	sw(chType, msgType)
	sw(chState, 1)
	sw(chRing, uint32(n.SendRing))
	sw(chCtl, uint32(sctl))
	sw(chMir, uint32(scon))
	// Hash table entry.
	slot := (msgType & 15) * 8
	if err := p.S.UserWrite32(p.PS, sTab+vm.VAddr(slot), msgType); err != nil {
		panic(err)
	}
	if err := p.S.UserWrite32(p.PS, sTab+vm.VAddr(slot)+4, uint32(n.sChan)); err != nil {
		panic(err)
	}

	// Receiver channel struct.
	rw := func(off uint32, v uint32) {
		if err := p.R.UserWrite32(p.PR, n.rChan+vm.VAddr(off), v); err != nil {
			panic(err)
		}
	}
	rw(chType, msgType)
	rw(chState, 1)
	rw(chRing, uint32(n.RecvRing))
	rw(chCtl, uint32(rcon))
	rw(chMir, uint32(rctl))
	if err := p.R.UserWrite32(p.PR, rTab+vm.VAddr(slot), msgType); err != nil {
		panic(err)
	}
	if err := p.R.UserWrite32(p.PR, rTab+vm.VAddr(slot)+4, uint32(n.rChan)); err != nil {
		panic(err)
	}
	p.Drain()

	n.csendProg = isa.MustAssembleCached("nx2-csend", nx2Csend, p.SSyms)
	n.crecvProg = isa.MustAssembleCached("nx2-crecv", nx2Crecv, p.RSyms)
	return n
}

// Csend runs csend for the given payload staged in sender private
// memory, returning the instruction counts.
func (n *NX2Pair) Csend(payload []byte) Counts {
	n.WriteSender(n.sPriv, payload)
	c := n.run(n.S, n.PS, n.SSyms, n.csendProg, "csend", map[isa.Reg]uint32{
		isa.EAX: n.Type,
		isa.ESI: uint32(n.sPriv),
		isa.EBX: uint32(len(payload)),
	})
	if n.S.CPU.R[isa.EAX] != 0 {
		panic("msg: csend returned failure")
	}
	return c
}

// Crecv runs crecv into receiver private memory and returns the counts
// plus the received bytes.
func (n *NX2Pair) Crecv(maxBytes int) (Counts, []byte) {
	c := n.run(n.R, n.PR, n.RSyms, n.crecvProg, "crecv", map[isa.Reg]uint32{
		isa.EAX: n.Type,
		isa.EDI: uint32(n.rPriv),
		isa.EBX: uint32(maxBytes),
	})
	got := int32(n.R.CPU.R[isa.EAX])
	if got < 0 {
		panic("msg: crecv returned failure")
	}
	return c, n.ReadReceiver(n.rPriv, int(got))
}

// MeasureNX2 produces the csend/crecv Table 1 row on a post-boot
// machine, verifying the message round trip.
func MeasureNX2(m *core.Machine) Overhead {
	n := NewNX2Pair(m, 7)
	payload := []byte("an NX/2 message with FIFO type dispatch")
	sc := n.Csend(payload)
	n.Drain()
	rc, got := n.Crecv(2048)
	n.Drain()
	if !bytes.Equal(got, payload) {
		panic(fmt.Sprintf("msg: csend/crecv corrupted message: %q", got))
	}
	return Overhead{
		Name:        "csend and crecv",
		Source:      sc.User,
		Dest:        rc.User,
		PaperSource: 73,
		PaperDest:   78,
	}
}
