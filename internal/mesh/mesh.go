// Package mesh models the Intel Paragon routing backplane: a 2-D mesh of
// iMRC-style routers with deadlock-free, oblivious wormhole routing that
// preserves the order of packets from each sender to each receiver
// (paper §3).
//
// The model is worm-granular rather than flit-granular: a packet's worm
// acquires the channels along its XY path one hop at a time (paying a
// per-hop router latency), then streams its flits at the link rate once
// the head has been accepted by the destination endpoint. A worm holds
// every channel on its path until its tail drains, so a blocked receiver
// backpressures the network exactly as wormhole routing does — which is
// what the SHRIMP flow-control design relies on. XY routing plus FIFO
// channel arbitration gives deadlock freedom and per-pair in-order
// delivery.
//
// Event economy: the head's advance over a run of free channels is
// batched into a single queue operation — channel k+i's grant instant is
// grant(k) + i*(RouterLatency+FlitCycle), computed arithmetically — and
// the body-flit train behind the head is likewise one event (WireTime),
// never one per flit. A worm therefore costs two engine events end to end
// in the uncontended case (arrival offer, tail drain) regardless of hop
// count or packet length. When the head meets a busy channel the worm
// parks in that channel's FIFO and continues, with its virtual timing
// intact, from the release. Worms are pooled and all mesh events are
// sim.Handler firings, so the steady-state data path allocates nothing.
package mesh

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config holds the backplane's physical parameters.
type Config struct {
	Width, Height int      // mesh dimensions
	FlitBytes     int      // bytes carried per flit
	FlitCycle     sim.Time // time for one flit to cross one link
	RouterLatency sim.Time // per-hop header routing/arbitration latency
}

// DefaultConfig returns parameters loosely calibrated to the Paragon
// backplane: ~400 MB/s links (8 bytes / 20 ns) and ~15 ns per-hop
// routing latency.
func DefaultConfig(w, h int) Config {
	return Config{
		Width:         w,
		Height:        h,
		FlitBytes:     8,
		FlitCycle:     20 * sim.Nanosecond,
		RouterLatency: 15 * sim.Nanosecond,
	}
}

// Endpoint is the node-side consumer attached to a router's processor
// port (the SHRIMP network interface). Accept and Credit are the
// fabric's view of the endpoint and touch only its Incoming-FIFO
// occupancy; Deliver hands the drained packet to the node.
type Endpoint interface {
	// Accept is called when a worm's head reaches the processor port.
	// Returning false parks the worm — it keeps holding its channels,
	// backpressuring the mesh — until the endpoint calls Network.Unpark
	// (normally via Release).
	Accept(p *packet.Packet, wire int) bool
	// Credit returns wire bytes of Incoming-FIFO occupancy previously
	// claimed by Accept; Network.Release invokes it when the endpoint
	// has finished depositing a packet.
	Credit(wire int)
	// Deliver is called when the worm's tail has fully drained into the
	// endpoint (Accept returned true WireTime earlier).
	Deliver(p *packet.Packet, wire int)
}

// channel is one unidirectional link (or an injection/ejection port).
// Worms own channels exclusively; waiters are granted in FIFO order.
type channel struct {
	name    string
	owner   *worm
	waiters []*worm
	// injNode is the node index whose injection port this is, or -1.
	injNode int
	// stat is this channel's metrics block; nil when metrics are off.
	stat *obs.LinkStat
}

// Worm lifecycle phases, dispatched by Fire.
const (
	phaseArrive  uint8 = iota // head at the ejection port: offer to endpoint
	phaseDrained              // tail has streamed out: release and deliver
)

type worm struct {
	net      *Network
	pkt      *packet.Packet
	wire     int
	path     []*channel
	acquired int // number of channels currently owned (head is at path[acquired-1])
	// grantTime is the virtual instant the next channel grant takes
	// effect: the head reaches channel path[acquired]'s arbiter at
	// grant(path[acquired-1]) + RouterLatency + FlitCycle, whether or not
	// an engine event fires then.
	grantTime sim.Time
	phase     uint8
	parked    bool // head at ejection, endpoint refused
	// lost marks a worm the fault injector's drop roll killed in
	// flight: it still occupies its channels end to end but is
	// discarded at drain instead of delivered.
	lost     bool
	injected sim.Time
	free     *worm // pool link
}

// Fire implements sim.Handler: the worm is its own pooled event.
func (w *worm) Fire() {
	switch w.phase {
	case phaseArrive:
		w.net.arrive(w)
	case phaseDrained:
		w.net.drained(w)
	}
}

// Stats aggregates backplane activity.
type Stats struct {
	Injected      uint64
	Delivered     uint64
	Parked        uint64 // Accept refusals (flow-control events)
	FlitHops      uint64 // total flit·hop traffic
	TotalLatency  sim.Time
	MaxLatency    sim.Time
	TotalWireByte uint64
	// Fault-injection outcomes (zero outside fault mode).
	FaultDropped   uint64 // worms lost to a drop roll
	FaultCorrupted uint64 // packets damaged in flight
}

// Directions for the per-node link table.
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
	dirCount
)

// Network is the routing backplane.
type Network struct {
	eng *sim.Engine
	cfg Config
	eps []Endpoint // indexed y*Width+x
	// links[i][dir] is the outgoing link from node i toward dir, nil at
	// a mesh edge. An array lookup, not a map: route runs per packet.
	links [][dirCount]*channel
	inj   []*channel
	ej    []*channel
	park  []*worm // parked worm per node index (at most one: it owns the ejection channel)
	// dead marks crashed nodes on the fabric side: the ejection port
	// bit-buckets worms for them without consulting the endpoint. It is
	// set through SetDead, a fabric entry.
	dead []bool
	// injFree is called when a node's injection port frees up with no
	// waiters; the NIC uses it to pace its outgoing FIFO drain.
	injFree []func()

	// faults is the machine-wide fault injector; nil outside fault mode
	// (the zero-fault data path pays one nil check per injection). reg
	// mirrors SetObs's registry so fault events can complete spans and
	// charge per-node counters.
	faults *fault.Injector
	reg    *obs.Registry

	freeWorms *worm // pool of retired worms

	stats Stats
}

// New builds the backplane. Endpoints are attached later with Attach.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("mesh: dimensions must be positive")
	}
	if cfg.FlitBytes <= 0 {
		panic("mesh: FlitBytes must be positive")
	}
	nodes := cfg.Width * cfg.Height
	n := &Network{
		eng:     eng,
		cfg:     cfg,
		eps:     make([]Endpoint, nodes),
		links:   make([][dirCount]*channel, nodes),
		inj:     make([]*channel, nodes),
		ej:      make([]*channel, nodes),
		park:    make([]*worm, nodes),
		dead:    make([]bool, nodes),
		injFree: make([]func(), nodes),
	}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			c := packet.Coord{X: x, Y: y}
			i := n.index(c)
			n.inj[i] = &channel{name: fmt.Sprintf("inj%v", c), injNode: i}
			n.ej[i] = &channel{name: fmt.Sprintf("ej%v", c), injNode: -1}
			for dir, d := range [dirCount]packet.Coord{
				dirEast:  {X: x + 1, Y: y},
				dirWest:  {X: x - 1, Y: y},
				dirSouth: {X: x, Y: y + 1},
				dirNorth: {X: x, Y: y - 1},
			} {
				if n.Contains(d) {
					n.links[i][dir] = &channel{name: fmt.Sprintf("%v->%v", c, d), injNode: -1}
				}
			}
		}
	}
	return n
}

// SetObs registers every channel (links, injection and ejection ports)
// with the metrics registry. A nil registry (metrics disabled) leaves
// the channels uninstrumented.
func (n *Network) SetObs(reg *obs.Registry) {
	n.reg = reg
	register := func(ch *channel) {
		if ch != nil {
			ch.stat = reg.Link(ch.name)
		}
	}
	for i := range n.links {
		register(n.inj[i])
		register(n.ej[i])
		for dir := range n.links[i] {
			register(n.links[i][dir])
		}
	}
}

// OnInjectorFree registers a callback fired whenever c's injection port
// becomes free with no waiters (the previous worm's tail has left the
// node).
func (n *Network) OnInjectorFree(c packet.Coord, fn func()) {
	n.injFree[n.index(c)] = fn
}

func (n *Network) index(c packet.Coord) int { return c.Y*n.cfg.Width + c.X }

// Contains reports whether c is a valid coordinate on this backplane.
func (n *Network) Contains(c packet.Coord) bool {
	return c.X >= 0 && c.X < n.cfg.Width && c.Y >= 0 && c.Y < n.cfg.Height
}

// Attach connects an endpoint at coordinate c.
func (n *Network) Attach(c packet.Coord, ep Endpoint) {
	if !n.Contains(c) {
		panic(fmt.Sprintf("mesh: attach outside mesh: %v", c))
	}
	n.eps[n.index(c)] = ep
}

// Stats returns a snapshot of backplane statistics.
func (n *Network) Stats() Stats { return n.stats }

// Reset abandons all in-flight worms and returns the backplane to its
// just-built state: free channels, empty park slots, no dead nodes,
// zeroed statistics. Attached endpoints, injector-free callbacks and
// the fault injector persist (wiring, not state). Worms still holding
// channels are dropped rather than pooled — their packets are
// garbage-collected — so Reset is safe even mid-flight; the worm pool
// itself is retained.
func (n *Network) Reset() {
	resetChannel := func(ch *channel) {
		if ch == nil {
			return
		}
		ch.owner = nil
		ch.waiters = ch.waiters[:0]
	}
	for i := range n.links {
		for dir := range n.links[i] {
			resetChannel(n.links[i][dir])
		}
		resetChannel(n.inj[i])
		resetChannel(n.ej[i])
		n.park[i] = nil
		n.dead[i] = false
	}
	n.stats = Stats{}
}

// Config returns the backplane configuration.
func (n *Network) Config() Config { return n.cfg }

// flits returns the flit count of a wire-size packet.
func (n *Network) flits(wire int) int {
	return (wire + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
}

// WireTime returns the time for a packet of the given wire size to
// stream across one link.
func (n *Network) WireTime(wire int) sim.Time {
	return sim.Time(n.flits(wire)) * n.cfg.FlitCycle
}

// routeInto appends the XY path of channels from src to dst onto path:
// the injection port, X-dimension links, Y-dimension links, and the
// ejection port. Oblivious single-path routing is what gives per-pair
// ordering. The caller owns (and recycles) the backing array.
func (n *Network) routeInto(path []*channel, src, dst packet.Coord) []*channel {
	path = append(path, n.inj[n.index(src)])
	cur := src
	for cur.X != dst.X {
		dir := dirEast
		if dst.X < cur.X {
			dir = dirWest
		}
		path = append(path, n.links[n.index(cur)][dir])
		cur.X += sign(dst.X - cur.X)
	}
	for cur.Y != dst.Y {
		dir := dirSouth
		if dst.Y < cur.Y {
			dir = dirNorth
		}
		path = append(path, n.links[n.index(cur)][dir])
		cur.Y += sign(dst.Y - cur.Y)
	}
	return append(path, n.ej[n.index(cur)])
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

// InjectorBusy reports whether the injection port at c is still held by
// an earlier worm. The NIC drains its outgoing FIFO one packet at a time
// and uses this to pace injection.
func (n *Network) InjectorBusy(c packet.Coord) bool {
	return n.inj[n.index(c)].owner != nil || len(n.inj[n.index(c)].waiters) > 0
}

// SetFaults attaches the machine-wide fault injector (nil detaches).
// With an injector attached, every injection rolls the drop and corrupt
// streams for the source node.
func (n *Network) SetFaults(inj *fault.Injector) { n.faults = inj }

// getWorm takes a worm from the pool (or allocates the pool's first).
func (n *Network) getWorm() *worm {
	w := n.freeWorms
	if w == nil {
		return &worm{net: n}
	}
	n.freeWorms = w.free
	w.free = nil
	return w
}

// putWorm retires a delivered worm to the pool.
func (n *Network) putWorm(w *worm) {
	w.pkt = nil
	w.path = w.path[:0]
	w.acquired = 0
	w.parked = false
	w.lost = false
	w.free = n.freeWorms
	n.freeWorms = w
}

// Inject launches a packet from src toward p.Dst. The caller must have
// checked InjectorBusy; injecting into a busy port queues behind the
// current owner (permitted, but it defeats FIFO pacing).
func (n *Network) Inject(src packet.Coord, p *packet.Packet, wire int) {
	if !n.Contains(src) || !n.Contains(p.Dst) {
		panic(fmt.Sprintf("mesh: inject %v->%v outside mesh", src, p.Dst))
	}
	w := n.getWorm()
	w.pkt = p
	w.wire = wire
	w.path = n.routeInto(w.path, src, p.Dst)
	w.injected = n.eng.Now()
	w.grantTime = n.eng.Now()
	if n.faults != nil {
		n.rollFaults(w, src)
	}
	n.stats.Injected++
	n.stats.TotalWireByte += uint64(wire)
	n.advance(w)
}

// rollFaults draws the injector's per-packet decisions for a worm being
// injected by src: drop and corrupt. A lost worm still pays its full
// wire journey (the channels it holds and the flit·hops it burns model
// the wasted traffic); only delivery is withheld.
func (n *Network) rollFaults(w *worm, src packet.Coord) {
	node := n.index(src)
	now := n.eng.Now()
	scope := n.reg.Node(node)
	if n.faults.DropPacket(node, now) {
		w.lost = true
		n.stats.FaultDropped++
		scope.Inc(obs.CtrFaultDrops)
	}
	if n.faults.CorruptPacket(node, now) {
		w.pkt.Corrupt = true
		n.stats.FaultCorrupted++
		scope.Inc(obs.CtrFaultCorrupts)
	}
}

// advance claims channels for w's head starting at path[acquired], with
// w.grantTime the instant the next grant takes effect. The whole run of
// free channels is claimed in one pass — each successive grant instant
// computed arithmetically — ending in either a parked head (FIFO waiter
// on a busy channel; the release continues the worm) or a scheduled
// arrival at the ejection port.
func (n *Network) advance(w *worm) {
	for {
		ch := w.path[w.acquired]
		if ch.owner != nil || len(ch.waiters) > 0 {
			ch.waiters = append(ch.waiters, w)
			ch.stat.Wait(len(ch.waiters))
			return
		}
		n.take(ch, w)
		if w.acquired == len(w.path) {
			// Head is at the destination processor port.
			w.phase = phaseArrive
			n.eng.Schedule(w.grantTime+n.cfg.RouterLatency, w)
			return
		}
		// Head crosses this channel and arbitrates at the next router.
		w.grantTime += n.cfg.RouterLatency + n.cfg.FlitCycle
	}
}

// take records w's exclusive ownership of ch and advances the head.
func (n *Network) take(ch *channel, w *worm) {
	ch.owner = w
	w.acquired++
	n.stats.FlitHops += uint64(n.flits(w.wire))
	ch.stat.Take(n.flits(w.wire))
}

// arrive offers the worm's head to the destination endpoint. Lost
// worms (fault injection) skip the offer: the endpoint never sees them,
// but their tails still drain so the channels they hold release at the
// same instants a delivered worm's would.
func (n *Network) arrive(w *worm) {
	i := n.index(w.pkt.Dst)
	ep := n.eps[i]
	if ep == nil {
		n.eng.Fail(&fault.MachineCheck{
			Node: i, Kind: fault.CheckNoEndpoint, At: n.eng.Now(),
			Detail: fmt.Sprintf("worm from %v arrived at %v with no attached endpoint",
				w.pkt.Src, w.pkt.Dst),
		})
		w.lost = true
	}
	if w.lost {
		w.phase = phaseDrained
		n.eng.ScheduleAfter(n.WireTime(w.wire), w)
		return
	}
	if n.dead[i] {
		// Crashed node: the fabric bit-buckets the worm — it streams in
		// and drains normally (so the mesh cannot deadlock through the
		// corpse) and the endpoint's Deliver discards it.
		w.phase = phaseDrained
		n.eng.ScheduleAfter(n.WireTime(w.wire), w)
		return
	}
	if !ep.Accept(w.pkt, w.wire) {
		w.parked = true
		n.park[i] = w
		n.stats.Parked++
		return
	}
	// Accepted: the body-flit train streams into the endpoint as one
	// batched event — WireTime covers the whole train arithmetically.
	w.phase = phaseDrained
	n.eng.ScheduleAfter(n.WireTime(w.wire), w)
}

// Unpark retries delivery of the worm parked at c, if any. Endpoints call
// this when receive space frees up (normally through Release).
func (n *Network) Unpark(c packet.Coord) {
	i := n.index(c)
	w := n.park[i]
	if w == nil {
		return
	}
	n.park[i] = nil
	w.parked = false
	n.arrive(w)
}

// Release is the endpoint's end-of-deposit fabric entry: it returns wire
// bytes of Incoming-FIFO occupancy (Endpoint.Credit), completes the
// packet's causal span (as a drop when the deposit discarded it), and
// retries the worm parked at c now that space freed up.
func (n *Network) Release(c packet.Coord, wire int, span uint64, dropped bool) {
	if ep := n.eps[n.index(c)]; ep != nil {
		ep.Credit(wire)
	}
	if dropped {
		n.reg.SpanDropped(span, n.eng.Now())
	} else {
		n.reg.SpanDeposited(span, n.eng.Now())
	}
	n.Unpark(c)
}

// SetDead marks the node at c crashed on the fabric side: worms arriving
// for it bit-bucket (drain without an endpoint offer) so the mesh cannot
// deadlock through a dead node. One-way until Reset.
func (n *Network) SetDead(c packet.Coord) {
	n.dead[n.index(c)] = true
}

// drained fires when the accepted worm's tail has passed: release its
// channels, account the delivery, and hand the packet to the endpoint.
// Lost worms are discarded here instead (their span completes as a
// drop).
func (n *Network) drained(w *worm) {
	for _, ch := range w.path {
		n.release(ch, w)
	}
	pkt, wire := w.pkt, w.wire
	if w.lost {
		n.putWorm(w)
		n.reg.SpanDropped(pkt.Span, n.eng.Now())
		packet.Put(pkt)
		return
	}
	n.stats.Delivered++
	lat := n.eng.Now() - w.injected
	n.stats.TotalLatency += lat
	if lat > n.stats.MaxLatency {
		n.stats.MaxLatency = lat
	}
	ep := n.eps[n.index(pkt.Dst)]
	n.putWorm(w)
	ep.Deliver(pkt, wire)
}

// release frees ch from w and grants the next FIFO waiter, continuing
// that waiter's head from wherever its virtual timing places it.
func (n *Network) release(ch *channel, w *worm) {
	if ch.owner != w {
		panic(fmt.Sprintf("mesh: %s released by non-owner", ch.name))
	}
	ch.owner = nil
	if len(ch.waiters) > 0 {
		next := ch.waiters[0]
		copy(ch.waiters, ch.waiters[1:])
		ch.waiters = ch.waiters[:len(ch.waiters)-1]
		// The channel may have freed before the waiter's head physically
		// arrives at its arbiter; occupancy starts no earlier than that.
		if now := n.eng.Now(); next.grantTime < now {
			next.grantTime = now
		}
		n.take(ch, next)
		if next.acquired == len(next.path) {
			next.phase = phaseArrive
			n.eng.Schedule(next.grantTime+n.cfg.RouterLatency, next)
			return
		}
		next.grantTime += n.cfg.RouterLatency + n.cfg.FlitCycle
		n.advance(next)
		return
	}
	if ch.injNode >= 0 && n.injFree[ch.injNode] != nil {
		n.injFree[ch.injNode]()
	}
}

// HeadLatency estimates the no-contention head latency between two
// coordinates for a packet of the given wire size: per-channel routing
// plus one final stream. Used by calibration tests.
func (n *Network) HeadLatency(src, dst packet.Coord) sim.Time {
	channels := sim.Time(src.Hops(dst) + 2)
	return channels*(n.cfg.RouterLatency+n.cfg.FlitCycle) - n.cfg.FlitCycle
}
