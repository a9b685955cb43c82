package kernel

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/vm"
)

// RPC messages carried on the kernel rings. The map() system call, its
// teardown, and the §4.4 invalidation protocol are all implemented as
// request/response pairs between kernels.

type msgType uint8

const (
	mtMapInReq msgType = iota + 1
	mtMapInResp
	mtUnmapInReq
	mtUnmapInResp
	mtInvalidateReq
	mtInvalidateAck
	mtCredit
	// mtPing is the Survivable-mode heartbeat probe: no payload beyond
	// the type byte and no reply. Its only job is to exercise the
	// reliable layer toward an otherwise-idle peer so the retry budget
	// detects a crash that no data traffic would trip over.
	mtPing
)

// Status codes carried in responses.
const (
	stOK uint8 = iota
	stNoProcess
	stNotMapped
	stNoMemory
)

func statusErr(st uint8, what string) error {
	switch st {
	case stOK:
		return nil
	case stNoProcess:
		return fmt.Errorf("kernel: %s: no such destination process", what)
	case stNotMapped:
		return fmt.Errorf("kernel: %s: destination range not mapped", what)
	case stNoMemory:
		return fmt.Errorf("kernel: %s: destination out of memory", what)
	}
	return fmt.Errorf("kernel: %s: status %d", what, st)
}

// Future is the completion handle for an asynchronous kernel RPC.
type Future struct {
	node   packet.NodeID // whose kernel issued the request
	done   bool
	err    error
	frames []phys.PageNum
	cbs    []func(*Future)
}

func (k *Kernel) newFuture() *Future { return &Future{node: k.id} }

// Node returns the node whose kernel issued the request. Only that
// kernel's events can resolve the future, so it never resolves once
// the node has crashed.
func (f *Future) Node() packet.NodeID { return f.node }

// Done reports whether the RPC has completed.
func (f *Future) Done() bool { return f.done }

// Err returns the RPC error, if any (valid once Done).
func (f *Future) Err() error { return f.err }

// Frames returns the physical frames resolved by a map-in request.
func (f *Future) Frames() []phys.PageNum { return f.frames }

// OnDone registers a completion callback (fires immediately if already
// done).
func (f *Future) OnDone(cb func(*Future)) {
	if f.done {
		cb(f)
		return
	}
	f.cbs = append(f.cbs, cb)
}

func (f *Future) resolve(err error, frames []phys.PageNum) {
	if f.done {
		return
	}
	f.done, f.err, f.frames = true, err, frames
	for _, cb := range f.cbs {
		cb(f)
	}
	f.cbs = nil
}

func (k *Kernel) newRequest(dst packet.NodeID) (uint32, *Future) {
	k.nextReq++
	f := k.newFuture()
	k.pending[k.nextReq] = f
	k.pendingDst[k.nextReq] = dst
	return k.nextReq, f
}

// deadRequest short-circuits an RPC whose destination this kernel has
// already declared dead: the future resolves immediately (callers see
// fault.ErrPeerDown via errors.Is) without touching the ring.
func (k *Kernel) deadRequest(dst packet.NodeID) *Future {
	f := k.newFuture()
	f.resolve(k.peerDownErr(dst), nil)
	return f
}

// --- wire helpers ---

type wire struct{ b []byte }

func newWire(t msgType) *wire      { return &wire{b: []byte{byte(t)}} }
func (w *wire) u8(v uint8) *wire   { w.b = append(w.b, v); return w }
func (w *wire) u32(v uint32) *wire { w.b = binary.LittleEndian.AppendUint32(w.b, v); return w }
func (w *wire) u64(v uint64) *wire { w.b = binary.LittleEndian.AppendUint64(w.b, v); return w }

type reader struct {
	b   []byte
	off int
}

func (r *reader) u8() uint8 {
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// --- senders ---

// sendMapInReq asks the peer kernel to resolve count virtual pages of
// process dstPID starting at vpn, mark them mapped in (pinning per its
// policy), and return their physical frames.
func (k *Kernel) sendMapInReq(dst packet.NodeID, dstPID int, vpn vm.VPN, count int) *Future {
	if k.down[dst] != nil {
		return k.deadRequest(dst)
	}
	id, fut := k.newRequest(dst)
	w := newWire(mtMapInReq).u32(id).u32(uint32(k.id)).u32(uint32(dstPID)).u32(uint32(vpn)).u32(uint32(count))
	k.ringSend(k.peerOf(dst), w.b, false)
	return fut
}

// sendUnmapInReq tells the peer kernel this node no longer maps into the
// given frames.
func (k *Kernel) sendUnmapInReq(dst packet.NodeID, frames []phys.PageNum) *Future {
	if k.down[dst] != nil {
		return k.deadRequest(dst)
	}
	id, fut := k.newRequest(dst)
	w := newWire(mtUnmapInReq).u32(id).u32(uint32(k.id)).u32(uint32(len(frames)))
	for _, f := range frames {
		w.u32(uint32(f))
	}
	k.ringSend(k.peerOf(dst), w.b, false)
	return fut
}

// sendInvalidateReq asks the peer kernel to invalidate every outgoing
// mapping it has targeting local frame page (§4.4).
func (k *Kernel) sendInvalidateReq(dst packet.NodeID, page phys.PageNum) *Future {
	if k.down[dst] != nil {
		return k.deadRequest(dst)
	}
	id, fut := k.newRequest(dst)
	w := newWire(mtInvalidateReq).u32(id).u32(uint32(k.id)).u32(uint32(page))
	k.ringSend(k.peerOf(dst), w.b, false)
	k.stats.InvalidatesSent++
	return fut
}

func (k *Kernel) sendCredit(p *peer) {
	w := newWire(mtCredit).u64(p.consumed)
	k.ringSend(p, w.b, true)
}

// --- dispatch ---

func (k *Kernel) dispatch(from *peer, payload []byte) {
	r := &reader{b: payload}
	switch msgType(r.u8()) {
	case mtMapInReq:
		k.handleMapInReq(from, r)
	case mtMapInResp:
		k.handleMapInResp(r)
	case mtUnmapInReq:
		k.handleUnmapInReq(from, r)
	case mtUnmapInResp:
		k.handleSimpleResp(r, "unmap-in")
	case mtInvalidateReq:
		k.handleInvalidateReq(from, r)
	case mtInvalidateAck:
		k.handleSimpleResp(r, "invalidate")
	case mtCredit:
		k.ringAck(from, r.u64())
	case mtPing:
		// Heartbeat probe: delivery itself was the point.
	default:
		panic(fmt.Sprintf("kernel%d: unknown ring message from node %d", k.id, from.node))
	}
}

// handleMapInReq serves the receiver-side half of map(): resolve the
// destination buffer to physical frames, mark them mapped in, and record
// the importer for the §4.4 protocol.
func (k *Kernel) handleMapInReq(from *peer, r *reader) {
	id := r.u32()
	src := packet.NodeID(r.u32())
	pid := int(r.u32())
	vpn := vm.VPN(r.u32())
	count := int(r.u32())
	k.stats.MapInRequests++

	reply := newWire(mtMapInResp).u32(id)
	proc, ok := k.procs[pid]
	if !ok {
		k.ringSend(from, reply.u8(stNoProcess).u32(0).b, false)
		return
	}
	frames := make([]phys.PageNum, 0, count)
	for i := 0; i < count; i++ {
		p := vpn + vm.VPN(i)
		if _, present := proc.AS.FrameOf(p); !present {
			// Paged out (or never mapped): page it back in if we have a
			// swap record; otherwise the request is bad.
			if !k.hasSwap(proc, p) {
				k.ringSend(from, reply.u8(stNotMapped).u32(0).b, false)
				return
			}
			if err := k.pageIn(proc, p); err != nil {
				k.ringSend(from, reply.u8(stNoMemory).u32(0).b, false)
				return
			}
		}
		frame, _ := proc.AS.FrameOf(p)
		frames = append(frames, frame)
	}
	for _, f := range frames {
		k.nic.Table().Entry(f).MappedIn = true
		imp := k.imports[f]
		if imp == nil {
			imp = make(map[packet.NodeID]int)
			k.imports[f] = imp
		}
		imp[src]++
	}
	reply.u8(stOK).u32(uint32(len(frames)))
	for _, f := range frames {
		reply.u32(uint32(f))
	}
	k.ringSend(from, reply.b, false)
}

func (k *Kernel) handleMapInResp(r *reader) {
	id := r.u32()
	fut, ok := k.pending[id]
	if !ok {
		return
	}
	delete(k.pending, id)
	delete(k.pendingDst, id)
	st := r.u8()
	n := int(r.u32())
	frames := make([]phys.PageNum, n)
	for i := range frames {
		frames[i] = phys.PageNum(r.u32())
	}
	fut.resolve(statusErr(st, "map-in"), frames)
}

func (k *Kernel) handleUnmapInReq(from *peer, r *reader) {
	id := r.u32()
	src := packet.NodeID(r.u32())
	n := int(r.u32())
	for i := 0; i < n; i++ {
		f := phys.PageNum(r.u32())
		if imp := k.imports[f]; imp != nil {
			imp[src]--
			if imp[src] <= 0 {
				delete(imp, src)
			}
			if len(imp) == 0 {
				delete(k.imports, f)
				k.nic.Table().Entry(f).MappedIn = false
			}
		}
	}
	k.ringSend(from, newWire(mtUnmapInResp).u32(id).u8(stOK).b, false)
}

// handleInvalidateReq serves the §4.4 shootdown: every local outgoing
// mapping targeting (from.node, page) is torn out of the NIPT and its
// source virtual page marked read-only; the eventual write fault
// re-establishes the mapping.
func (k *Kernel) handleInvalidateReq(from *peer, r *reader) {
	id := r.u32()
	_ = r.u32() // src node, same as ring peer
	page := phys.PageNum(r.u32())
	k.stats.InvalidatesServed++

	key := exportKey{node: from.node, page: page}
	for _, m := range k.exports[key] {
		k.invalidateOutMapping(m)
	}
	delete(k.exports, key)
	k.ringSend(from, newWire(mtInvalidateAck).u32(id).u8(stOK).b, false)
}

func (k *Kernel) handleSimpleResp(r *reader, what string) {
	id := r.u32()
	fut, ok := k.pending[id]
	if !ok {
		return
	}
	delete(k.pending, id)
	delete(k.pendingDst, id)
	fut.resolve(statusErr(r.u8(), what), nil)
}

// invalidateOutMapping clears the NIPT segment of one outgoing mapping
// and write-protects its source page.
func (k *Kernel) invalidateOutMapping(m *OutMapping) {
	if m.Invalidated {
		return
	}
	m.Invalidated = true
	frame, ok := m.Proc.AS.FrameOf(m.VPN)
	if ok {
		k.Obs.Inc(obs.CtrKernelUnmaps)
		*k.nic.Table().Out(frame, m.SegmentOffset) = nipt.OutMapping{}
	}
	m.Proc.AS.SetWritable(m.VPN, false)
}
