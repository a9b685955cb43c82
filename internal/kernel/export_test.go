package kernel

import (
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/vm"
)

// MarkImported leaves frame f in the state a completed map-in from node
// does, importer bookkeeping and the NIPT MappedIn bit, without the
// allocator handing f out. Tests use it to plant NIPT state on a frame
// the allocator counts as free.
func (k *Kernel) MarkImported(f phys.PageNum, node packet.NodeID) {
	k.imports[f] = map[packet.NodeID]int{node: 1}
	k.nic.Table().Entry(f).MappedIn = true
}

// CheckSegmentFree runs Map's NIPT conflict check for the segment
// [start, end) of frame.
func (k *Kernel) CheckSegmentFree(frame phys.PageNum, start, end uint32) error {
	return k.checkSegmentFree(frame, pageSeg{segStart: start, segEnd: end})
}

// SetEagerRings selects, for every machine booted from now on, whether
// Boot installs the node's side of every kernel ring, the layout before
// rings were installed at first contact. Differential tests run it as
// the reference; they must set it back to false.
func SetEagerRings(on bool) { eagerRings = on }

// PageInForTest restores an evicted page at once, as a demand page-in
// from the fault path does.
func (k *Kernel) PageInForTest(p *Process, vpn vm.VPN) error { return k.pageIn(p, vpn) }

// SwapCopy returns the swap copy kept for p's evicted page vpn, nil when
// there is none.
func (k *Kernel) SwapCopy(p *Process, vpn vm.VPN) []byte {
	return k.swap[swapKey{pid: p.PID, vpn: vpn}]
}
