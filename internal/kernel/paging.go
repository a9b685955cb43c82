package kernel

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/vm"
)

// Mapping consistency under paging (§4.4). Pages with only outgoing
// mappings can be replaced freely because the mapping information lives
// in kernel records (the paper: "provided that the outgoing mapping
// information is stored in the page table"). Pages with incoming
// mappings are either pinned, or replaced via the invalidation protocol:
// every remote NIPT entry referring to the page is invalidated (its
// source page marked read-only) and acknowledged before the page moves;
// writers re-establish lazily through page faults.

func (k *Kernel) hasSwap(p *Process, vpn vm.VPN) bool {
	_, ok := k.swap[swapKey{pid: p.PID, vpn: vpn}]
	return ok
}

// EvictPage replaces the physical page backing p's virtual page vpn,
// saving its contents to (simulated) swap. The future resolves when the
// page has actually been freed — immediately for unshared pages, after
// the invalidation round for mapped-in pages under InvalidateProtocol.
func (k *Kernel) EvictPage(p *Process, vpn vm.VPN) *Future {
	fut := k.newFuture()
	pte, ok := p.AS.Lookup(vpn)
	if !ok || !pte.Present || pte.Command {
		fut.resolve(fmt.Errorf("kernel: evict: page %#x not resident", uint32(vpn)), nil)
		return fut
	}
	frame := pte.Frame
	importers := k.imports[frame]
	if len(importers) == 0 {
		k.finishEvict(p, vpn, frame)
		fut.resolve(nil, nil)
		return fut
	}
	if k.cfg.Policy == PinPages {
		k.stats.EvictionsRefused++
		fut.resolve(fmt.Errorf("kernel: evict: page %#x is pinned (mapped in by %d node(s))",
			uint32(vpn), len(importers)), nil)
		return fut
	}
	// Invalidation protocol: shoot down every importer, collect acks,
	// then replace.
	remaining := len(importers)
	for node := range importers {
		req := k.sendInvalidateReq(node, frame)
		req.OnDone(func(r *Future) {
			// An importer declared dead mid-shootdown acknowledges
			// implicitly: its NIPT died with it, so the frame is just as
			// safe to reuse as after an explicit ack.
			if err := r.Err(); err != nil && !errors.Is(err, fault.ErrPeerDown) {
				fut.resolve(err, nil)
				return
			}
			remaining--
			if remaining == 0 {
				delete(k.imports, frame)
				k.nic.Table().Entry(frame).MappedIn = false
				k.finishEvict(p, vpn, frame)
				fut.resolve(nil, nil)
			}
		})
	}
	return fut
}

// finishEvict performs the actual replacement once the frame is safe to
// take: write back cache residue, save contents, clear the NIPT entry,
// mark the PTE non-present, and free the frame.
func (k *Kernel) finishEvict(p *Process, vpn vm.VPN, frame phys.PageNum) {
	if k.box != nil {
		k.box.Cache.FlushPage(frame)
	}
	k.swap[swapKey{pid: p.PID, vpn: vpn}] = k.mem.Read(frame.Addr(0), phys.PageSize)
	k.nic.Table().Clear(frame)
	pte, _ := p.AS.Lookup(vpn)
	pte.Present = false
	p.AS.Map(vpn, pte)
	k.freeFrame(frame)
	k.stats.Evictions++
	k.Obs.Inc(obs.CtrKernelEvictions)
}

// pageIn restores an evicted page into a fresh frame and reinstalls the
// outgoing NIPT segments recorded for it.
func (k *Kernel) pageIn(p *Process, vpn vm.VPN) error {
	key := swapKey{pid: p.PID, vpn: vpn}
	content, ok := k.swap[key]
	if !ok {
		return fmt.Errorf("kernel: page-in: no swap record for page %#x", uint32(vpn))
	}
	frame, err := k.allocFrame()
	if err != nil {
		return err
	}
	k.mem.Write(frame.Addr(0), content)
	delete(k.swap, key)
	pte, _ := p.AS.Lookup(vpn)
	pte.Frame = frame
	pte.Present = true
	p.AS.Map(vpn, pte)
	for _, rec := range p.outMaps[vpn] {
		if rec.Invalidated {
			continue
		}
		k.installSegment(frame, pageSeg{segStart: rec.SegStart, segEnd: rec.SegEnd}, rec.Seg)
	}
	k.stats.PageIns++
	k.Obs.Inc(obs.CtrKernelPageIns)
	return nil
}

// PageInForTest restores an evicted page immediately. Tests and
// experiment harnesses drive paging explicitly; normal operation pages
// in through the fault path.
func (k *Kernel) PageInForTest(p *Process, vpn vm.VPN) error { return k.pageIn(p, vpn) }

// HandleFault is the CPU's page-fault entry point. It repairs two kinds
// of fault: not-present pages with swap records (demand page-in), and
// write-protection faults on invalidated outgoing mappings, which it
// repairs by re-running the map-in handshake with the destination kernel
// ("the kernel can try to re-establish the invalid mapping", §4.4).
func (k *Kernel) HandleFault(c *isa.CPU, f *vm.Fault) isa.FaultAction {
	p := k.sched.current
	if p == nil {
		return isa.FaultAbort
	}
	vpn := f.VA.Page()
	switch f.Reason {
	case vm.NotPresent:
		if !k.hasSwap(p, vpn) {
			return isa.FaultAbort
		}
		c.Freeze()
		k.eng.After(k.cfg.PageInTime, func() {
			if err := k.pageIn(p, vpn); err != nil {
				panic(err) // out of memory mid-repair: surface loudly
			}
			c.Thaw()
		})
		return isa.FaultRetry

	case vm.Protection:
		if !f.Write {
			return isa.FaultAbort
		}
		var invalid []*OutMapping
		for _, rec := range p.outMaps[vpn] {
			if rec.Invalidated {
				invalid = append(invalid, rec)
			}
		}
		if len(invalid) == 0 {
			return isa.FaultAbort
		}
		k.stats.ReestablishFaults++
		c.Freeze()
		remaining := len(invalid)
		for _, rec := range invalid {
			rec := rec
			req := k.sendMapInReq(rec.Dst, rec.DstPID, rec.DstVPN, 1)
			req.OnDone(func(r *Future) {
				if err := r.Err(); err != nil {
					if !errors.Is(err, fault.ErrPeerDown) {
						panic(fmt.Sprintf("kernel%d: re-establish failed: %v", k.id, err))
					}
					// Degraded mode: the destination is dead, so the
					// mapping cannot come back. Drop the record and let
					// the page fall through to plain local writability —
					// stores land in local memory and propagate nowhere.
					k.dropExportRecord(rec)
					list := p.outMaps[vpn]
					for i, pr := range list {
						if pr == rec {
							p.outMaps[vpn] = append(list[:i], list[i+1:]...)
							break
						}
					}
					remaining--
					if remaining == 0 {
						p.AS.SetWritable(vpn, true)
						c.Thaw()
					}
					return
				}
				k.dropExportRecord(rec)
				rec.Seg.DstPage = r.Frames()[0]
				rec.Invalidated = false
				k.exports[exportKey{node: rec.Dst, page: rec.Seg.DstPage}] =
					append(k.exports[exportKey{node: rec.Dst, page: rec.Seg.DstPage}], rec)
				if frame, ok := p.AS.FrameOf(rec.VPN); ok {
					k.installSegment(frame, pageSeg{segStart: rec.SegStart, segEnd: rec.SegEnd}, rec.Seg)
				}
				remaining--
				if remaining == 0 {
					p.AS.SetWritable(vpn, true)
					c.Thaw()
				}
			})
		}
		return isa.FaultRetry
	}
	return isa.FaultAbort
}
