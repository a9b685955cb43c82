package kernel

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/phys"
)

// Crash survival. SHRIMP's §4.4 machinery tears mappings down one page
// at a time with an acknowledged handshake; a crashed node can never
// acknowledge, so survival needs a second teardown path keyed off the
// failure detector instead of the wire. The NIC's reliable layer is the
// detector: when a flow's retry budget exhausts in Survivable mode it
// declares the peer dead (nic.declarePeerDown) and the machine routes
// the event here. HandlePeerDown then quarantines every mapping to or
// from the dead node in one node-local pass — no messages, nothing to
// wait for — after which the kernel runs degraded: RPCs to the dead
// node fast-fail with fault.ErrPeerDown, stores through invalidated
// mappings repair to local-only pages, and surviving traffic proceeds
// untouched.

// SetSurvivable arms crash-survival mode (mirrors
// fault.Config.Survivable; the machine constructor sets it at boot).
func (k *Kernel) SetSurvivable(on bool) { k.survivable = on }

// Survivable reports whether crash-survival mode is armed.
func (k *Kernel) Survivable() bool { return k.survivable }

// PeerIsDown reports whether this kernel's failure detector has
// declared the node dead.
func (k *Kernel) PeerIsDown(node packet.NodeID) bool { return k.down[node] != nil }

// PeerDownCause returns the failure-detector record for a dead peer,
// or nil if the peer has not been declared dead.
func (k *Kernel) PeerDownCause(node packet.NodeID) *fault.PeerDown { return k.down[node] }

// peerDownErr wraps the membership record so callers can test
// errors.Is(err, fault.ErrPeerDown).
func (k *Kernel) peerDownErr(dst packet.NodeID) error {
	if pd := k.down[dst]; pd != nil {
		return fmt.Errorf("kernel%d: rpc to node %d: %w", k.id, dst, pd)
	}
	return fmt.Errorf("kernel%d: rpc to node %d: %w", k.id, dst, fault.ErrPeerDown)
}

// HandlePeerDown quarantines a dead peer: every pending RPC addressed
// to it resolves with fault.ErrPeerDown, every outgoing mapping
// targeting it is invalidated (the §4.4 teardown, minus the handshake
// the dead node can no longer complete), its mapped-in claims on local
// frames are dropped, and queued control records to it are discarded.
// Idempotent; all iteration orders are sorted so replays cannot
// reorder the teardown.
func (k *Kernel) HandlePeerDown(pd *fault.PeerDown) {
	d := packet.NodeID(pd.Node)
	if d == k.id || k.down[d] != nil {
		return
	}
	// Record membership first: completion callbacks below may issue new
	// RPCs, and those must fast-fail rather than re-arm the quarantined
	// reliable layer.
	k.down[d] = pd
	k.stats.PeerDowns++

	// 1. Pending RPCs to the dead node will never be acknowledged.
	var ids []uint32
	for id, dst := range k.pendingDst {
		if dst == d {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fut := k.pending[id]
		delete(k.pending, id)
		delete(k.pendingDst, id)
		fut.resolve(k.peerDownErr(d), nil)
	}

	// 2. Outgoing mappings to the dead node: invalidate like a §4.4
	// shootdown. A later store faults, and re-establishment (which
	// fast-fails against a dead destination) degrades the page to
	// local-only writability.
	var pages []phys.PageNum
	for key := range k.exports {
		if key.node == d {
			pages = append(pages, key.page)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pg := range pages {
		key := exportKey{node: d, page: pg}
		for _, m := range k.exports[key] {
			k.invalidateOutMapping(m)
			k.stats.PeerMapsTorn++
		}
		delete(k.exports, key)
	}

	// 3. The dead node's claims on local frames: nothing will arrive
	// from it (its NIC bit-buckets), and an unmap-in will never come.
	var frames []phys.PageNum
	for f, imp := range k.imports {
		if _, ok := imp[d]; ok {
			frames = append(frames, f)
		}
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, f := range frames {
		imp := k.imports[f]
		delete(imp, d)
		k.stats.PeerMapsTorn++
		if len(imp) == 0 {
			delete(k.imports, f)
			k.nic.Table().Entry(f).MappedIn = false
		}
	}

	// 4. Control records queued behind the ring credit window would
	// otherwise sit forever: the dead node returns no more credits.
	if p := k.peers[d]; p != nil {
		p.backlog = nil
	}

	if k.OnPeerDown != nil {
		k.OnPeerDown(pd)
	}
}

// Heartbeat sends one liveness probe to every peer not already declared
// dead. The probe is an ordinary ring record, so it rides the reliable
// layer: a crashed receiver never acknowledges, the flow's retry budget
// exhausts, and the failure detector fires — giving Survivable mode a
// bounded detection time even when no data traffic targets the dead
// node. Peers with backlogged records are skipped; their queued traffic
// already exercises the detector.
func (k *Kernel) Heartbeat() {
	for node := packet.NodeID(0); int(node) < k.nodes; node++ {
		if node == k.id || k.down[node] != nil {
			continue
		}
		p := k.peerOf(node)
		if len(p.backlog) > 0 {
			continue
		}
		k.ringSend(p, newWire(mtPing).b, false)
		k.stats.PingsSent++
	}
}
