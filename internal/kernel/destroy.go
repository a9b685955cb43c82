package kernel

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/phys"
)

// DestroyProcess tears a process down completely: every outgoing mapping
// is removed (with the destination kernels releasing their mapped-in
// state), every remote mapping INTO the process's pages is invalidated
// §4.4-style, command-page grants vanish with the address space, all
// frames return to the allocator, and swap records are dropped. The
// future resolves when all remote acknowledgements are in.
func (k *Kernel) DestroyProcess(p *Process) *Future {
	fut := k.newFuture()
	if _, ok := k.procs[p.PID]; !ok {
		fut.resolve(fmt.Errorf("kernel%d: no process %d", k.id, p.PID), nil)
		return fut
	}

	// Outstanding remote round trips to wait for. The count starts at 1
	// (a seal released after every request is issued) so a request that
	// resolves synchronously — its destination already declared dead —
	// cannot drain the count to zero and reap mid-loop.
	outstanding := 1
	var firstErr error
	done := func(err error) {
		// A peer declared dead mid-teardown implicitly acknowledges: its
		// mapped-in state died with it (HandlePeerDown on the survivors,
		// oblivion on the crashed node), so the future must still resolve.
		if err != nil && !errors.Is(err, fault.ErrPeerDown) && firstErr == nil {
			firstErr = err
		}
		outstanding--
		if outstanding == 0 {
			k.reapProcess(p)
			fut.resolve(firstErr, nil)
		}
	}

	// 1. Tear down outgoing mappings: gather live records per
	//    destination node and release the remote mapped-in state.
	// Every loop over a map runs in key order, so that the requests go
	// out in the same order on every run.
	remote := make(map[packet.NodeID][]phys.PageNum)
	for _, vpn := range sortedKeys(p.outMaps) {
		for _, rec := range p.outMaps[vpn] {
			if frame, ok := p.AS.FrameOf(rec.VPN); ok && !rec.Invalidated {
				k.removeSegment(frame, rec)
			}
			k.dropExportRecord(rec)
			if !rec.Invalidated {
				remote[rec.Dst] = append(remote[rec.Dst], rec.Seg.DstPage)
			}
		}
	}
	for vpn := range p.outMaps {
		delete(p.outMaps, vpn)
	}
	for _, node := range sortedKeys(remote) {
		outstanding++
		req := k.sendUnmapInReq(node, remote[node])
		req.OnDone(func(r *Future) { done(r.Err()) })
	}

	// 2. Shoot down remote mappings into this process's frames so no
	//    further traffic lands after the frames are reused.
	for _, vpn := range p.AS.Pages() {
		frame, ok := p.AS.FrameOf(vpn)
		if !ok {
			continue
		}
		importers := k.imports[frame]
		if len(importers) == 0 {
			continue
		}
		for _, node := range sortedKeys(importers) {
			outstanding++
			req := k.sendInvalidateReq(node, frame)
			req.OnDone(func(r *Future) { done(r.Err()) })
		}
		// The frame stops accepting regardless of ack timing order; the
		// invalidation acks gate only the frame reuse (reapProcess).
		delete(k.imports, frame)
		k.nic.Table().Entry(frame).MappedIn = false
	}

	// Release the seal; if nothing remote was outstanding (or everything
	// resolved synchronously) this reaps and resolves right here.
	done(nil)
	return fut
}

// reapProcess frees every frame and forgets the process.
func (k *Kernel) reapProcess(p *Process) {
	for _, vpn := range p.AS.Pages() {
		if frame, ok := p.AS.FrameOf(vpn); ok {
			if k.box != nil {
				k.box.Cache.FlushPage(frame)
			}
			k.freeFrame(frame)
		}
		// Command-page PTEs (no frame of their own) die with the
		// address space.
		p.AS.Unmap(vpn)
	}
	for key := range k.swap {
		if key.pid == p.PID {
			delete(k.swap, key)
		}
	}
	if k.sched.current == p {
		k.sched.current = nil
	}
	for i, q := range k.sched.runq {
		if q == p {
			k.sched.runq = append(k.sched.runq[:i], k.sched.runq[i+1:]...)
			break
		}
	}
	delete(k.procs, p.PID)
}
