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

// The traditional kernel-mediated NX/2 baseline (§5.2, §6): the
// structure of the iPSC/2 path, reproduced on the simulated machine so
// the two implementations can be compared in the same instruction
// currency. csend traps into the kernel, which validates the request,
// allocates a system buffer, copies the user data into it, runs the
// flow-control and routing bookkeeping, and "programs the DMA" (here:
// transmits through a kernel transport ring); message arrival raises a
// receive interrupt whose handler moves the message into a system
// buffer queue; crecv traps into the kernel, which searches the queue
// by type, copies the message out to user space, and frees the buffer.
//
// The paper cites 222 instructions for the NX/2 csend fast path and 261
// for crecv, "plus the cost of a system call and a DMA interrupt"; the
// point of the comparison is the ~4× overhead of kernel mediation and
// double buffering over SHRIMP's user-level mapped-memory path.

// Kernel data page layout (symbol KDATA). All single-node state.
const (
	kLock     = 0   // kernel send/receive lock
	kFreeHead = 4   // system buffer freelist head (VA)
	kFreeCnt  = 8   // free buffer count
	kSeq      = 12  // send sequence counter
	kTick     = 16  // fake timestamp counter
	kStatSnd  = 20  // messages sent
	kStatRcv  = 24  // messages received
	kStatByte = 28  // bytes moved
	kQuota    = 32  // per-process message quota
	kEvIdx    = 36  // event log cursor
	kProduced = 40  // ring bytes produced (sender side)
	kConsumed = 44  // ring bytes consumed (receiver side)
	kRingOff  = 48  // ring cursor
	kSendQH   = 52  // send descriptor queue head
	kSendQT   = 56  // send descriptor queue tail
	kCredits  = 60  // destination credits
	kEvLog    = 64  // 16-word event log
	kDstTab   = 128 // destination table: 8 nodes x 16 bytes
	kRcvQ     = 256 // receive queues: 16 types x 8 (head, tail)
	kProbeTab = 384 // pending-probe table: 16 types x 4
	kPool     = 512 // system buffers: 4 slots x 896 bytes
)

// System buffer (descriptor + payload) layout.
const (
	dNext  = 0  // freelist / queue link
	dType  = 4  // message type
	dLen   = 8  // payload bytes
	dSeq   = 12 // sequence number
	dSrc   = 16 // source node
	dDst   = 20 // destination node
	dFlags = 24
	dTick  = 28 // timestamp
	dCksum = 32 // header checksum
	dState = 36 // READY / QUEUED / DONE
	dData  = 64 // payload
	dSlot  = 896
)

func baseConsts(syms map[string]int64) {
	for k, v := range map[string]int64{
		"K_LOCK": kLock, "K_FREEHEAD": kFreeHead, "K_FREECNT": kFreeCnt,
		"K_SEQ": kSeq, "K_TICK": kTick, "K_STATSND": kStatSnd,
		"K_STATRCV": kStatRcv, "K_STATBYTE": kStatByte, "K_QUOTA": kQuota,
		"K_EVIDX": kEvIdx, "K_PRODUCED": kProduced, "K_CONSUMED": kConsumed,
		"K_RINGOFF": kRingOff, "K_SENDQH": kSendQH, "K_SENDQT": kSendQT,
		"K_CREDITS": kCredits, "K_EVLOG": kEvLog, "K_DSTTAB": kDstTab,
		"K_RCVQ": kRcvQ, "K_PROBETAB": kProbeTab, "K_POOL": kPool,
		"D_NEXT": dNext, "D_TYPE": dType, "D_LEN": dLen, "D_SEQ": dSeq,
		"D_SRC": dSrc, "D_DST": dDst, "D_FLAGS": dFlags, "D_TICK": dTick,
		"D_CKSUM": dCksum, "D_STATE": dState, "D_DATA": dData, "D_SLOT": dSlot,
		"RINGSZ": phys.PageSize, "MAXMSG": 512, "SYS_CSEND": 3, "SYS_CRECV": 4,
		"K_INTMASK": 108, "K_INTSAVE": 112,
	} {
		syms[k] = v
	}
}

// baseCsend: user stub plus the kernel send handler.
const baseCsend = `
; ---- user stub: marshal arguments and trap ----
csend:
	push	ebx			; u1 syscall frame: nbytes
	push	esi			; u2 user buffer
	push	eax			; u3 message type
	mov	eax, SYS_CSEND		; u4
	int	64			; u5 (trap cost modeled separately)
	add	esp, 12			; u6
	hlt

; ---- kernel send handler ----
ksend:
	push	ebp			; 1 save context
	push	esi			; 2
	push	edi			; 3
	push	ebx			; 4
	push	ecx			; 5
	push	edx			; 6
	mov	ebp, KDATA		; 7
	; fetch arguments from the trap frame
	mov	eax, [esp+28]		; 8  type
	mov	esi, [esp+32]		; 9  user buffer
	mov	ebx, [esp+36]		; 10 nbytes
	; event log: syscall entry
	mov	ecx, [ebp+K_EVIDX]	; 11
	and	ecx, 15			; 12
	mov	edx, ecx		; 13
	shl	edx, 2			; 14
	mov	[ebp+K_EVLOG+edx], eax	; 15... wait, indexed by computed reg
	inc	ecx			; 16
	mov	[ebp+K_EVIDX], ecx	; 17
	; validate request
	test	eax, eax		; 18 type nonzero
	jz	ksend_err
	cmp	eax, 65535		; 20 type is 16 bits
	ja	ksend_err
	test	ebx, ebx		; 22 length nonzero
	jz	ksend_err
	cmp	ebx, MAXMSG		; 24 length bounded
	ja	ksend_err
	test	esi, 3			; 26 user buffer aligned
	jnz	ksend_err
	mov	ecx, [ebp+K_QUOTA]	; 28 process quota
	test	ecx, ecx		; 29
	jz	ksend_err
	dec	ecx			; 31
	mov	[ebp+K_QUOTA], ecx	; 32
	; channel ownership: one sender per message type
	mov	ecx, eax
	and	ecx, 15
	shl	ecx, 2
	add	ecx, K_PROBETAB
	add	ecx, KDATA
	mov	ecx, [ecx]
	test	ecx, ecx
	jnz	ksend_err		; type claimed by another sender
	; acquire the send lock (uniprocessor node: test and set)
	mov	ecx, [ebp+K_LOCK]	; 33
	test	ecx, ecx		; 34
	jnz	ksend_err		; (contended path untaken)
	mov	dword [ebp+K_LOCK], 1	; 36
	; destination table: state, route and credits
	mov	edx, 1			; 37 destination node id
	shl	edx, 4			; 38
	add	edx, KDATA		; 39
	mov	ecx, [edx+K_DSTTAB]	; 40 state word
	cmp	ecx, 1			; 41 must be "up"
	jne	ksend_unlock_err
	mov	ecx, [edx+K_DSTTAB+8]	; per-destination statistics
	inc	ecx
	mov	[edx+K_DSTTAB+8], ecx
	; route computation: mesh coordinates from node ids (dx, dy with
	; sign folding, as the iPSC routing setup did for its hypercube)
	mov	ecx, [edx+K_DSTTAB+4]	; 43 destination coordinate word
	mov	edi, ecx		; 44
	and	edi, 255		; 45 dst x
	mov	eax, ecx		; 46
	shr	eax, 8			; 47 dst y
	and	eax, 255		; 48
	sub	edi, 0			; 49 dx = dstx - srcx (src node 0)
	jns	ksend_dxpos		; 50
	neg	edi			;    (untaken: positive dx)
	or	edi, 256		;    west bit
ksend_dxpos:
	sub	eax, 0			; 52 dy = dsty - srcy
	jns	ksend_dypos		; 53
	neg	eax
	or	eax, 512
ksend_dypos:
	shl	eax, 16			; 55
	or	edi, eax		; 56 packed route word for the header
	; fragmentation decision: message fits one transport packet?
	mov	eax, ebx		; 57
	add	eax, 511		; 58
	shr	eax, 9			; 59 fragment count
	cmp	eax, 1			; 60
	ja	ksend_unlock_err	; 61 (multi-fragment path elided)
	; interrupt mask save (spl emulation around the queue/DMA section)
	mov	eax, [ebp+K_INTMASK]	; 62
	mov	[ebp+K_INTSAVE], eax	; 63
	mov	dword [ebp+K_INTMASK], 1 ; 64 splhigh
	mov	ecx, [ebp+K_CREDITS]	; 65 flow-control credits
	test	ecx, ecx		; 46
	jz	ksend_unlock_err
	dec	ecx			; 48
	mov	[ebp+K_CREDITS], ecx	; 49
	; allocate a system buffer from the freelist
	mov	edx, [ebp+K_FREEHEAD]	; 50
	test	edx, edx		; 51
	jz	ksend_unlock_err
	mov	ecx, [edx+D_NEXT]	; 53
	mov	[ebp+K_FREEHEAD], ecx	; 54
	mov	ecx, [ebp+K_FREECNT]	; 55
	dec	ecx			; 56
	mov	[ebp+K_FREECNT], ecx	; 57
	; fill the message descriptor
	mov	eax, [esp+28]		; reload the type from the trap frame
	mov	[edx+D_TYPE], eax	; 58
	mov	[edx+D_LEN], ebx	; 59
	mov	ecx, [ebp+K_SEQ]	; 60
	mov	[edx+D_SEQ], ecx	; 61
	inc	ecx			; 62
	mov	[ebp+K_SEQ], ecx	; 63
	mov	dword [edx+D_SRC], 0	; 64
	mov	dword [edx+D_DST], 1	; 65
	mov	[edx+D_FLAGS], edi	; 66 route/flags
	mov	ecx, [ebp+K_TICK]	; 67 timestamp
	mov	[edx+D_TICK], ecx	; 68
	inc	ecx			; 69
	mov	[ebp+K_TICK], ecx	; 70
	mov	dword [edx+D_STATE], 1	; 71 READY
	; payload guard words recorded beside the descriptor
	mov	ecx, [esi]		; first payload word
	mov	[edx+40], ecx
	mov	ecx, ebx
	and	ecx, -4
	mov	[edx+44], ecx
	; header checksum over the descriptor words
	mov	ecx, [edx+D_TYPE]	; 72
	xor	ecx, [edx+D_LEN]	; 73
	xor	ecx, [edx+D_SEQ]	; 74
	xor	ecx, [edx+D_SRC]	; 75
	xor	ecx, [edx+D_DST]	; 76
	xor	ecx, [edx+D_FLAGS]	; 77
	xor	ecx, [edx+D_TICK]	; 78
	mov	[edx+D_CKSUM], ecx	; 79
	; copy user data into the system buffer (the first copy of the
	; traditional double-copy path)
	push	edx			; 80
	mov	edi, edx		; 81
	add	edi, D_DATA		; 82
	mov	ecx, ebx		; 83
	add	ecx, 3			; 84
	shr	ecx, 2			; 85
	cld				; 86
	rep movsd			; 87 (per-byte cost excluded)
	pop	edx			; 88
	; enqueue on the send descriptor queue
	mov	dword [edx+D_NEXT], 0	; 89
	mov	ecx, [ebp+K_SENDQT]	; 90
	test	ecx, ecx		; 91
	jz	ksend_qempty
	mov	[ecx+D_NEXT], edx	; 93
	jmp	ksend_qdone
ksend_qempty:
	mov	[ebp+K_SENDQH], edx	; (alt path, same length)
ksend_qdone:
	mov	[ebp+K_SENDQT], edx	; 95
	; "program the DMA": transmit the descriptor + payload through the
	; kernel transport ring (flow control, wrap check, burst copy)
	mov	ecx, ebx		; 96 record size = 64 + round4(len)
	add	ecx, 67			; 97
	and	ecx, -4			; 98
ksend_space:
	mov	edi, [ebp+K_CONSMIR]	; 99 consumed mirror VA
	mov	edi, [edi]		; 100
	mov	eax, [ebp+K_PRODUCED]	; 101
	sub	eax, edi		; 102
	add	eax, ecx		; 103
	cmp	eax, RINGSZ		; 104
	ja	ksend_space
	mov	eax, [ebp+K_RINGOFF]	; 106 wrap check
	mov	edi, eax		; 107
	add	edi, ecx		; 108
	cmp	edi, RINGSZ		; 109
	ja	ksend_err		; (wrap path elided in fast-path run)
	mov	edi, KRING		; 111
	add	edi, eax		; 112
	; burst out descriptor head (8 words) then payload
	push	edx			; 113
	mov	esi, edx		; 114
	add	esi, D_TYPE		; 115
	mov	ecx, 9			; 116
	cld				; 117
	rep movsd			; 118 descriptor words
	pop	edx			; 119
	push	edx			; 120
	mov	esi, edx		; 121
	add	esi, D_DATA		; 122
	mov	ecx, ebx		; 123
	add	ecx, 3			; 124
	shr	ecx, 2			; 125
	rep movsd			; 126 payload words
	pop	edx			; 127
	; cursors and the arrival doorbell (produced counter, mapped)
	mov	ecx, ebx		; 128
	add	ecx, 67			; 129
	and	ecx, -4			; 130
	mov	eax, [ebp+K_RINGOFF]	; 131
	add	eax, ecx		; 132
	mov	[ebp+K_RINGOFF], eax	; 133
	mov	eax, [ebp+K_PRODUCED]	; 134
	add	eax, ecx		; 135
	mov	[ebp+K_PRODUCED], eax	; 136
	mov	edi, [ebp+K_CTLOUT]	; 137 doorbell VA (mapped out)
	mov	[edi], eax		; 138 arrival interrupt fires remotely
	; send completion: dequeue and free the system buffer
	mov	ecx, [edx+D_NEXT]	; 139
	mov	[ebp+K_SENDQH], ecx	; 140
	test	ecx, ecx		; 141
	jnz	ksend_notlast
	mov	dword [ebp+K_SENDQT], 0	; 143
ksend_notlast:
	mov	dword [edx+D_STATE], 3	; 144 DONE
	mov	ecx, [ebp+K_FREEHEAD]	; 145
	mov	[edx+D_NEXT], ecx	; 146
	mov	[ebp+K_FREEHEAD], edx	; 147
	mov	ecx, [ebp+K_FREECNT]	; 148
	inc	ecx			; 149
	mov	[ebp+K_FREECNT], ecx	; 150
	; statistics, quota and credit bookkeeping
	mov	ecx, [ebp+K_STATSND]	; 151
	inc	ecx			; 152
	mov	[ebp+K_STATSND], ecx	; 153
	mov	ecx, [ebp+K_STATBYTE]	; 154
	add	ecx, ebx		; 155
	mov	[ebp+K_STATBYTE], ecx	; 156
	mov	ecx, [ebp+K_CREDITS]	; 157 credit returned on completion
	inc	ecx			; 158
	mov	[ebp+K_CREDITS], ecx	; 159
	mov	ecx, [ebp+K_QUOTA]	; 160
	inc	ecx			; 161
	mov	[ebp+K_QUOTA], ecx	; 162
	; event log: completion
	mov	ecx, [ebp+K_EVIDX]	; 163
	and	ecx, 15			; 164
	shl	ecx, 2			; 165
	mov	[ebp+K_EVLOG+ecx], ebx	; 166
	mov	ecx, [ebp+K_EVIDX]	; 167
	inc	ecx			; 168
	mov	[ebp+K_EVIDX], ecx	; 169
	; interrupt mask restore (splx)
	mov	eax, [ebp+K_INTSAVE]	; restore spl
	mov	[ebp+K_INTMASK], eax
	; release the lock and return success
	mov	dword [ebp+K_LOCK], 0
	xor	eax, eax
	pop	edx			; 172
	pop	ecx			; 173
	pop	ebx			; 174
	pop	edi			; 175
	pop	esi			; 176
	pop	ebp			; 177
	iret				; 178

ksend_unlock_err:
	mov	dword [ebp+K_LOCK], 0
ksend_err:
	mov	eax, -1
	pop	edx
	pop	ecx
	pop	ebx
	pop	edi
	pop	esi
	pop	ebp
	iret
`

// baseCrecv: user stub, the receive-interrupt handler, and the kernel
// receive handler.
const baseCrecv = `
; ---- user stub ----
crecv:
	push	ebx			; u1 max bytes
	push	edi			; u2 user buffer
	push	eax			; u3 requested type
	mov	eax, SYS_CRECV		; u4
	int	64			; u5
	add	esp, 12			; u6
	hlt

; ---- receive interrupt handler: drain the transport ring into system
; ---- buffers and queue them by type (the "DMA receive interrupt") ----
kirq:
	push	eax			; 1 save the full interrupted context
	push	ebp			; 2
	push	esi			; 3
	push	edi			; 4
	push	ecx			; 5
	push	edx			; 6
	push	ebx			; 7
	mov	ebp, KDATA		; 8
kirq_scan:
	mov	esi, [ebp+K_PRODMIR]	; 8 produced mirror VA
	mov	esi, [esi]		; 9
	mov	ecx, [ebp+K_CONSUMED]	; 10
	cmp	esi, ecx		; 11 anything new?
	je	kirq_out
	mov	esi, KRING		; 13 record address
	mov	edx, [ebp+K_RINGOFF]	; 14
	add	esi, edx		; 15
	; read and verify the descriptor head
	mov	eax, [esi]		; 16 type
	mov	ebx, [esi+4]		; 17 len
	test	ebx, ebx		; 18
	jz	kirq_out
	cmp	ebx, MAXMSG		; 20
	ja	kirq_out
	mov	ecx, [esi]		; 22 checksum over header words
	xor	ecx, [esi+4]		; 23
	xor	ecx, [esi+8]		; 24
	xor	ecx, [esi+12]		; 25
	xor	ecx, [esi+16]		; 26
	xor	ecx, [esi+20]		; 27
	xor	ecx, [esi+24]		; 28
	cmp	ecx, [esi+28]		; 29
	jne	kirq_out
	; allocate a system buffer
	mov	edx, [ebp+K_FREEHEAD]	; 31
	test	edx, edx		; 32
	jz	kirq_out
	mov	ecx, [edx+D_NEXT]	; 34
	mov	[ebp+K_FREEHEAD], ecx	; 35
	mov	ecx, [ebp+K_FREECNT]	; 36
	dec	ecx			; 37
	mov	[ebp+K_FREECNT], ecx	; 38
	; copy descriptor then payload out of the ring (second copy of the
	; traditional path: network buffer -> system buffer)
	push	edx			; 39
	mov	edi, edx		; 40
	add	edi, D_TYPE		; 41
	mov	ecx, 9			; 42 descriptor words
	cld				; 43
	rep movsd			; 44
	pop	edx			; 45
	push	edx			; 46
	mov	edi, edx		; 47
	add	edi, D_DATA		; 48
	mov	ecx, ebx		; 49
	add	ecx, 3			; 50
	shr	ecx, 2			; 51
	rep movsd			; 52 payload (per-byte cost excluded)
	pop	edx			; 53
	; fix up the buffer-local fields
	mov	dword [edx+D_NEXT], 0	; 48
	mov	dword [edx+D_STATE], 2	; 49 QUEUED
	; enqueue on the per-type receive queue
	mov	eax, [edx+D_TYPE]	; 50
	and	eax, 15			; 51
	shl	eax, 3			; 52
	add	eax, K_RCVQ		; 53
	add	eax, KDATA		; 54
	mov	ecx, [eax+4]		; 55 tail
	test	ecx, ecx		; 56
	jz	kirq_qempty
	mov	[ecx+D_NEXT], edx	; (untaken with empty queue)
	jmp	kirq_qdone
kirq_qempty:
	mov	[eax], edx		; 58 head
kirq_qdone:
	mov	[eax+4], edx		; 59 tail
	; wake a blocked receiver if the probe table says one is waiting
	mov	eax, [edx+D_TYPE]	; 60
	and	eax, 15			; 61
	shl	eax, 2			; 62
	add	eax, K_PROBETAB		; 63
	add	eax, KDATA		; 64
	mov	dword [eax], 0		; 65 clear pending probe
	; advance the consumed cursor and return credit to the sender
	mov	ecx, [edx+D_LEN]	; 66
	add	ecx, 67			; 67
	and	ecx, -4			; 68
	mov	eax, [ebp+K_RINGOFF]	; 69
	add	eax, ecx		; 70
	mov	[ebp+K_RINGOFF], eax	; 71
	mov	eax, [ebp+K_CONSUMED]	; 72
	add	eax, ecx		; 73
	mov	[ebp+K_CONSUMED], eax	; 74
	mov	edi, [ebp+K_CTLOUT]	; 75 consumed counter (mapped back)
	mov	[edi], eax		; 76
	; statistics
	mov	ecx, [ebp+K_STATRCV]	; 77
	inc	ecx			; 78
	mov	[ebp+K_STATRCV], ecx	; 79
	jmp	kirq_scan		; 80 more records?
kirq_out:
	pop	ebx			; 82
	pop	edx			; 83
	pop	ecx			; 84
	pop	edi			; 85
	pop	esi			; 86
	pop	ebp			; 87
	pop	eax			; 88
	iret				; 89

; ---- kernel receive handler ----
kcrecv:
	push	ebp			; 1
	push	esi			; 2
	push	edi			; 3
	push	ebx			; 4
	push	ecx			; 5
	push	edx			; 6
	mov	ebp, KDATA		; 7
	mov	eax, [esp+28]		; 8  requested type
	mov	edi, [esp+32]		; 9  user buffer
	mov	ebx, [esp+36]		; 10 max bytes
	; event log: syscall entry
	mov	ecx, [ebp+K_EVIDX]	; 11
	and	ecx, 15			; 12
	shl	ecx, 2			; 13
	mov	[ebp+K_EVLOG+ecx], eax	; 14
	mov	ecx, [ebp+K_EVIDX]	; 15
	inc	ecx			; 16
	mov	[ebp+K_EVIDX], ecx	; 17
	; validate
	test	eax, eax		; 18
	jz	kcrecv_err
	cmp	eax, 65535		; 20
	ja	kcrecv_err
	test	ebx, ebx		; 22
	jz	kcrecv_err
	test	edi, 3			; 24
	jnz	kcrecv_err
	mov	ecx, [ebp+K_QUOTA]	; 26
	test	ecx, ecx		; 27
	jz	kcrecv_err
	; lock
	mov	ecx, [ebp+K_LOCK]	; 29
	test	ecx, ecx		; 30
	jnz	kcrecv_err
	mov	dword [ebp+K_LOCK], 1	; 32
	; interrupt mask save (spl around the queue manipulation)
	mov	ecx, [ebp+K_INTMASK]
	mov	[ebp+K_INTSAVE], ecx
	mov	dword [ebp+K_INTMASK], 1
	; pending-probe table: at most one outstanding receive per type
	mov	ecx, eax
	and	ecx, 15
	shl	ecx, 2
	add	ecx, K_PROBETAB
	add	ecx, KDATA
	mov	edx, [ecx]
	test	edx, edx
	jnz	kcrecv_unlock_err
	mov	dword [ecx], 1
	; per-process quota charge
	mov	ecx, [ebp+K_QUOTA]
	dec	ecx
	mov	[ebp+K_QUOTA], ecx
	; per-type receive queue lookup
	mov	edx, eax		; 33
	and	edx, 15			; 34
	shl	edx, 3			; 35
	add	edx, K_RCVQ		; 36
	add	edx, KDATA		; 37
	mov	esi, [edx]		; 38 queue head
	test	esi, esi		; 39 fast path: message waiting
	jz	kcrecv_block
	; verify the descriptor matches the request
	mov	ecx, [esi+D_TYPE]	; 41
	cmp	ecx, eax		; 42
	jne	kcrecv_unlock_err
	mov	ecx, [esi+D_STATE]	; 44
	cmp	ecx, 2			; 45 QUEUED
	jne	kcrecv_unlock_err
	mov	ecx, [esi+D_SRC]	; source node bounds
	cmp	ecx, 7
	ja	kcrecv_unlock_err
	mov	ecx, [esi+D_SEQ]	; sequence window check
	cmp	ecx, [ebp+K_SEQ]
	jne	kcrecv_unlock_err
	mov	ecx, [ebp+K_SEQ]
	inc	ecx
	mov	[ebp+K_SEQ], ecx
	mov	ecx, [esi+D_LEN]	; 47
	cmp	ecx, ebx		; 48 fits user buffer
	ja	kcrecv_unlock_err
	; checksum verification before handing data to the user
	mov	ecx, [esi+D_TYPE]	; 50
	xor	ecx, [esi+D_LEN]	; 51
	xor	ecx, [esi+D_SEQ]	; 52
	xor	ecx, [esi+D_SRC]	; 53
	xor	ecx, [esi+D_DST]	; 54
	xor	ecx, [esi+D_FLAGS]	; 55
	xor	ecx, [esi+D_TICK]	; 56
	cmp	ecx, [esi+D_CKSUM]	; 57
	jne	kcrecv_unlock_err
	; dequeue
	mov	ecx, [esi+D_NEXT]	; 59
	mov	[edx], ecx		; 60 new head
	test	ecx, ecx		; 61
	jnz	kcrecv_notlast
	mov	dword [edx+4], 0	; 63 clear tail
kcrecv_notlast:
	; record the completion in the probe table (satisfied request)
	mov	ecx, eax		; 64
	and	ecx, 15			; 65
	shl	ecx, 2			; 66
	add	ecx, K_PROBETAB		; 67
	add	ecx, KDATA		; 68
	mov	edx, [esi+D_SEQ]	; 69
	mov	[ecx], edx		; 70
	; copy system buffer -> user buffer
	push	esi			; 71
	mov	ebx, [esi+D_LEN]	; 72 actual length
	mov	ecx, ebx		; 73
	add	ecx, 3			; 74
	shr	ecx, 2			; 75
	add	esi, D_DATA		; 76
	cld				; 77
	rep movsd			; 78 (per-byte cost excluded)
	pop	esi			; 79
	; write the user status block (type, len, src) after the data
	mov	ecx, [esi+D_TYPE]	; 80
	mov	[edi], ecx		; 81
	mov	ecx, [esi+D_LEN]	; 82
	mov	[edi+4], ecx		; 83
	mov	ecx, [esi+D_SRC]	; 84
	mov	[edi+8], ecx		; 85
	; free the system buffer
	mov	dword [esi+D_STATE], 3	; 86 DONE
	mov	ecx, [ebp+K_FREEHEAD]	; 87
	mov	[esi+D_NEXT], ecx	; 88
	mov	[ebp+K_FREEHEAD], esi	; 89
	mov	ecx, [ebp+K_FREECNT]	; 90
	inc	ecx			; 91
	mov	[ebp+K_FREECNT], ecx	; 92
	; statistics and timestamps
	mov	ecx, [ebp+K_STATBYTE]	; 93
	add	ecx, ebx		; 94
	mov	[ebp+K_STATBYTE], ecx	; 95
	mov	ecx, [ebp+K_TICK]	; 96
	inc	ecx			; 97
	mov	[ebp+K_TICK], ecx	; 98
	; event log: completion
	mov	ecx, [ebp+K_EVIDX]	; 99
	and	ecx, 15			; 100
	shl	ecx, 2			; 101
	mov	[ebp+K_EVLOG+ecx], ebx	; 102
	mov	ecx, [ebp+K_EVIDX]	; 103
	inc	ecx			; 104
	mov	[ebp+K_EVIDX], ecx	; 105
	; request satisfied: clear the probe, restore quota and spl
	mov	ecx, [esp+28]		; requested type
	and	ecx, 15
	shl	ecx, 2
	add	ecx, K_PROBETAB
	add	ecx, KDATA
	mov	dword [ecx], 0
	mov	ecx, [ebp+K_QUOTA]
	inc	ecx
	mov	[ebp+K_QUOTA], ecx
	mov	ecx, [ebp+K_INTSAVE]
	mov	[ebp+K_INTMASK], ecx
	; unlock, return received length
	mov	dword [ebp+K_LOCK], 0	; 106
	mov	eax, ebx		; 107
	pop	edx			; 108
	pop	ecx			; 109
	pop	ebx			; 110
	pop	edi			; 111
	pop	esi			; 112
	pop	ebp			; 113
	iret				; 114

kcrecv_block:
	; No message queued: post a probe and spin-wait for the interrupt
	; handler to satisfy it (a real kernel would sleep the process).
	mov	ecx, eax
	and	ecx, 15
	shl	ecx, 2
	add	ecx, K_PROBETAB
	add	ecx, KDATA
	mov	dword [ecx], 1
	mov	dword [ebp+K_LOCK], 0
kcrecv_spin:
	mov	esi, [edx]
	test	esi, esi
	jz	kcrecv_spin
	mov	dword [ebp+K_LOCK], 1
	jmp	kcrecv_requeue
kcrecv_requeue:
	mov	esi, [edx]
	jmp	kcrecv_have
kcrecv_have:
	; (re-join the fast path via the verification block)
	mov	ecx, [esi+D_TYPE]
	cmp	ecx, eax
	jne	kcrecv_unlock_err
	jmp	kcrecv_err

kcrecv_unlock_err:
	mov	dword [ebp+K_LOCK], 0
kcrecv_err:
	mov	eax, -1
	pop	edx
	pop	ecx
	pop	ebx
	pop	edi
	pop	esi
	pop	ebp
	iret
`

// BaselinePair is the kernel-mediated NX/2 setup between two nodes.
type BaselinePair struct {
	*Pair
	csendProg *isa.Program
	crecvProg *isa.Program
	sUser     vm.VAddr
	rUser     vm.VAddr
}

// NewBaselinePair builds the baseline: kernel data pages, the kernel
// transport ring (blocked-write mapping), arrival and credit doorbells,
// and the interrupt plumbing — on nodes 0 and 1 of a post-boot machine.
func NewBaselinePair(m *core.Machine) *BaselinePair {
	p := NewPair(m, 0, 1)
	baseConsts(p.SSyms)
	baseConsts(p.RSyms)
	b := &BaselinePair{Pair: p}

	// Kernel data page on each side.
	sk, err := p.PS.AllocPages(1)
	if err != nil {
		panic(err)
	}
	rk, err := p.PR.AllocPages(1)
	if err != nil {
		panic(err)
	}
	p.SSyms["KDATA"] = int64(sk)
	p.RSyms["KDATA"] = int64(rk)

	// Transport ring sender→receiver, and the two doorbell words.
	p.MapBuf("KRING", 1, 1, nipt.BlockedWriteAU)
	sctl, rctl := p.MapBuf("KCTL", 1, 1, nipt.SingleWriteAU) // produced doorbell →
	rcon, scon := func() (vm.VAddr, vm.VAddr) {              // consumed credit ←
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

	// Arrival interrupt: the produced doorbell page interrupts the
	// receiving CPU on arrival (the traditional NIC's receive IRQ).
	frame, _ := p.PR.FrameOf(rctl)
	p.R.NIC.Table().Entry(frame).RecvInterrupt = true
	p.R.K.OnUserRecvIRQ = func(phys.PageNum) { p.R.CPU.RaiseIRQ(0x21) }

	// Doorbell/mirror VAs, stored in the kernel page so the handlers
	// find them (simulating kernel globals set at boot).
	kw := func(sender bool, off uint32, v uint32) {
		if sender {
			if err := p.S.UserWrite32(p.PS, sk+vm.VAddr(off), v); err != nil {
				panic(err)
			}
		} else {
			if err := p.R.UserWrite32(p.PR, rk+vm.VAddr(off), v); err != nil {
				panic(err)
			}
		}
	}

	// Sender kernel globals: doorbell out = sctl, consumed mirror = scon.
	const kCtlOut = 96
	const kConsMir = 100
	const kProdMir = 104
	p.SSyms["K_CTLOUT"] = kCtlOut
	p.SSyms["K_CONSMIR"] = kConsMir
	p.RSyms["K_CTLOUT"] = kCtlOut
	p.RSyms["K_PRODMIR"] = kProdMir
	kw(true, kCtlOut, uint32(sctl))
	kw(true, kConsMir, uint32(scon))
	kw(false, kCtlOut, uint32(rcon))
	kw(false, kProdMir, uint32(rctl))

	// Freelists: 4 system buffer slots per side.
	initPool := func(sender bool, base vm.VAddr) {
		var prev uint32
		for i := 3; i >= 0; i-- {
			slot := uint32(base) + kPool + uint32(i*dSlot)
			kwAbs := func(off, v uint32) {
				va := vm.VAddr(slot + off)
				if sender {
					if err := p.S.UserWrite32(p.PS, va, v); err != nil {
						panic(err)
					}
				} else {
					if err := p.R.UserWrite32(p.PR, va, v); err != nil {
						panic(err)
					}
				}
			}
			kwAbs(dNext, prev)
			prev = slot
		}
		kw(sender, kFreeHead, prev)
		kw(sender, kFreeCnt, 4)
	}
	initPool(true, sk)
	initPool(false, rk)
	// Quotas, credits, destination table.
	kw(true, kQuota, 16)
	kw(false, kQuota, 16)
	kw(true, kCredits, 4)
	kw(true, kDstTab+16, 1)   // node 1 state = up
	kw(true, kDstTab+16+4, 5) // node 1 route word
	p.Drain()

	// User staging buffers.
	b.sUser, err = p.PS.AllocPages(1)
	if err != nil {
		panic(err)
	}
	b.rUser, err = p.PR.AllocPages(1)
	if err != nil {
		panic(err)
	}

	b.csendProg = isa.MustAssembleCached("nx2base-csend", baseCsend, p.SSyms)
	b.crecvProg = isa.MustAssembleCached("nx2base-crecv", baseCrecv, p.RSyms)
	return b
}

// Csend runs the baseline csend; the returned counts separate user and
// kernel instructions, and Traps reports the system call.
func (b *BaselinePair) Csend(msgType uint32, payload []byte) Counts {
	b.WriteSender(b.sUser, payload)
	b.S.K.BindProcess(b.PS)
	cpu := b.S.CPU
	cpu.Load(b.csendProg)
	cpu.InstallISR(64, "ksend")
	cpu.R = [8]uint32{}
	cpu.R[isa.ESP] = uint32(b.SSyms["STKTOP"])
	cpu.R[isa.EAX] = msgType
	cpu.R[isa.ESI] = uint32(b.sUser)
	cpu.R[isa.EBX] = uint32(len(payload))
	cpu.ResetCounters()
	if err := cpu.Start("csend"); err != nil {
		panic(err)
	}
	b.Drain()
	if err := cpu.Err(); err != nil {
		panic(err)
	}
	if cpu.R[isa.EAX] != 0 {
		panic("msg: baseline csend returned failure")
	}
	c := cpu.Counters()
	return Counts{User: c.User, Kernel: c.Kernel, RepIters: c.RepIters, Traps: c.Traps}
}

// Crecv runs the baseline crecv (the pending receive interrupt is
// dispatched first, so its handler cost is included, as the paper's
// "cost of a DMA receive interrupt").
func (b *BaselinePair) Crecv(msgType uint32, maxBytes int) (Counts, []byte) {
	b.R.K.BindProcess(b.PR)
	cpu := b.R.CPU
	cpu.Load(b.crecvProg)
	cpu.InstallISR(64, "kcrecv")
	cpu.InstallISR(0x21, "kirq")
	cpu.R = [8]uint32{}
	cpu.R[isa.ESP] = uint32(b.RSyms["STKTOP"])
	cpu.R[isa.EAX] = msgType
	cpu.R[isa.EDI] = uint32(b.rUser)
	cpu.R[isa.EBX] = uint32(maxBytes)
	cpu.ResetCounters()
	if err := cpu.Start("crecv"); err != nil {
		panic(err)
	}
	b.Drain()
	if err := cpu.Err(); err != nil {
		panic(err)
	}
	n := int32(cpu.R[isa.EAX])
	if n < 0 {
		panic("msg: baseline crecv returned failure")
	}
	c := cpu.Counters()
	return Counts{User: c.User, Kernel: c.Kernel, RepIters: c.RepIters, Traps: c.Traps},
		b.ReadReceiver(b.rUser, int(n))
}

// BaselineComparison is the §5.2 comparison: SHRIMP user-level NX/2
// versus the kernel-mediated baseline.
type BaselineComparison struct {
	Shrimp        Overhead
	BaseCsend     Counts
	BaseCrecv     Counts
	PaperBaseSend uint64 // 222 (NX/2 on iPSC/2, fast path)
	PaperBaseRecv uint64 // 261
}

// Ratio returns baseline total instructions over SHRIMP total.
func (c BaselineComparison) Ratio() float64 {
	base := float64(c.BaseCsend.User + c.BaseCsend.Kernel + c.BaseCrecv.User + c.BaseCrecv.Kernel)
	return base / float64(c.Shrimp.Total())
}

// MeasureBaseline runs both implementations, each on a fresh machine
// booted from cfg, and verifies the baseline actually delivers the
// message.
func MeasureBaseline(cfg core.Config) BaselineComparison {
	b := NewBaselinePair(core.New(cfg))
	payload := []byte("baseline NX/2 message through the kernel")
	sc := b.Csend(9, payload)
	b.Drain()
	rc, got := b.Crecv(9, 256)
	b.Drain()
	if !bytes.Equal(got, payload) {
		panic(fmt.Sprintf("msg: baseline corrupted message: %q", got))
	}
	return BaselineComparison{
		Shrimp:        MeasureNX2(core.New(cfg)),
		BaseCsend:     sc,
		BaseCrecv:     rc,
		PaperBaseSend: 222,
		PaperBaseRecv: 261,
	}
}
