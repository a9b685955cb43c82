package core

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// applyFaults installs the deterministic fault plan on a post-boot
// machine: the scheduled node crash events on the engine. Reset calls
// it again after the engine reset discards the pending events, so a
// reset machine replays the identical plan. No-op without an injector.
func (m *Machine) applyFaults() {
	if m.Faults == nil {
		return
	}
	fc := m.Cfg.Faults
	for _, nf := range fc.Nodes {
		if nf.Kind == fault.NodeCrash {
			node := m.Nodes[nf.Node]
			node.Eng.Schedule(nf.At, &crashEvent{node: node})
		}
	}
	// Survivable-mode heartbeat: per-node liveness sweeps, installed only
	// when the plan actually crashes someone. Each sweep stops once every
	// planned crash has been detected by its node (or the node itself is
	// dead), so an otherwise-idle machine still quiesces and a plan with
	// no crashes stays bit-identical to one without the heartbeat.
	if fc.Survivable && fc.Heartbeat > 0 {
		var targets []int
		for _, nf := range fc.Nodes {
			if nf.Kind == fault.NodeCrash {
				targets = append(targets, nf.Node)
			}
		}
		if len(targets) > 0 {
			for _, node := range m.Nodes {
				node.Eng.Schedule(fc.Heartbeat,
					&heartbeatEvent{node: node, period: fc.Heartbeat, targets: targets})
			}
		}
	}
}

// crashEvent fires one scheduled node crash: the NIC goes dead and the
// CPU freezes.
type crashEvent struct{ node *Node }

func (ev *crashEvent) Fire() {
	ev.node.NIC.SetDead()
	ev.node.CPU.Freeze()
}

// heartbeatEvent drives one node's periodic liveness sweep (Survivable
// mode). Each firing pings every peer not yet declared dead; a crashed
// receiver never acknowledges, so the reliable layer's retry budget
// exhausts and the failure detector fires with a bounded detection time
// even when no data traffic targets the dead node.
type heartbeatEvent struct {
	node    *Node
	period  sim.Time
	targets []int // node ids the fault plan crashes
}

func (ev *heartbeatEvent) Fire() {
	n := ev.node
	if n.NIC.Dead() {
		return
	}
	undetected := false
	for _, t := range ev.targets {
		if t != int(n.ID) && !n.K.PeerIsDown(packet.NodeID(t)) {
			undetected = true
			break
		}
	}
	if !undetected {
		return // every planned crash detected: the sweep's job is done
	}
	n.K.Heartbeat()
	n.Eng.Lane(ev.period).Schedule(ev)
}

// notePeerDown pins one failure-detector declaration to the flight
// recorder timeline. The teardown already ran node-locally; only the
// mark crosses to the recorder.
func (m *Machine) notePeerDown(observer int, pd *fault.PeerDown) {
	if m.Rec == nil {
		return
	}
	m.Rec.MarkAt(pd.At, fmt.Sprintf("node %d: peer down: node %d", observer, pd.Node))
}

// FaultPoint is one point of a fault sweep: a deliberate-update stream
// pushed through a lossy fabric with reliable delivery on, reporting
// the goodput that survived and what the recovery machinery spent.
type FaultPoint struct {
	DropPPM       uint32
	TransferBytes int
	GoodBytes     uint64 // payload bytes deposited at the receiver
	Elapsed       sim.Time
	GoodputMBps   float64
	FaultDrops    uint64 // worms the injector lost in flight
	Corrupts      uint64 // packets damaged (dropped by the receiver CRC)
	Retransmits   uint64 // sender retransmissions
	AcksSent      uint64 // receiver cumulative ACKs
	NacksSent     uint64 // receiver gap reports
	DupDrops      uint64 // duplicate data packets the receiver discarded
	// Tail latency of the end-to-end transfer pipeline (snoop through
	// deposit) over this point's spans, interpolated from the stage-total
	// histogram delta. Zero unless the config has Metrics on.
	LatP50  sim.Time
	LatP99  sim.Time
	LatP999 sim.Time
	Events  uint64
	Err     string // non-empty when the run ended in a machine check
}

func (p FaultPoint) String() string {
	if p.Err != "" {
		return fmt.Sprintf("drop %5.2f%%: FAILED: %s", float64(p.DropPPM)/1e4, p.Err)
	}
	s := fmt.Sprintf("drop %5.2f%%: %7.2f MB/s goodput, %d lost, %d corrupt, %d rexmit, %d ack, %d nack",
		float64(p.DropPPM)/1e4, p.GoodputMBps, p.FaultDrops, p.Corrupts,
		p.Retransmits, p.AcksSent, p.NacksSent)
	if p.LatP999 > 0 {
		s += fmt.Sprintf(", lat p50/p99/p999 %v/%v/%v", p.LatP50, p.LatP99, p.LatP999)
	}
	return s
}

// MeasureFaultyTransfer streams totalBytes of deliberate-update
// transfers from node src to node dst on a post-boot machine, under its
// config's fault plan, and reports the surviving goodput. Unlike the
// clean-fabric harnesses it never panics on a machine check: a failed
// run, set-up included, comes back with Err set (graceful degradation
// is exactly what fault sweeps measure). Sizes follow
// MeasureDeliberateBandwidth: a bad transfer size or total panics.
func MeasureFaultyTransfer(m *Machine, src, dst, transferBytes, totalBytes int) FaultPoint {
	res := FaultPoint{DropPPM: m.Cfg.Faults.DropPPM, TransferBytes: transferBytes}
	s, cmd, err := setupDeliberate(m, src, dst, transferBytes, totalBytes, "faulty transfer page fill")
	if err != nil {
		res.Err = err.Error()
		res.Events = m.Fired()
		return res
	}
	words := uint32(transferBytes / 4)
	transfers := totalBytes / transferBytes
	var latBefore obs.Histogram
	if m.Cfg.Metrics {
		latBefore = m.Obs.StageHist(obs.HistStageTotal)
	}
	before := s.dst.NIC.Stats()
	netBefore := m.Net.Stats()
	start := m.Now()
stream:
	for i := 0; i < transfers && res.Err == ""; i++ {
		for {
			if err := m.Failed(); err != nil {
				res.Err = err.Error()
				break
			}
			if s.src.K.PeerIsDown(s.dst.ID) {
				// Degraded mode (Survivable): the destination was declared
				// dead and the teardown revoked the mapping, so no further
				// command can be accepted. Stop streaming; the partial
				// goodput is the measurement.
				break stream
			}
			_, swapped, _ := s.src.Cache.LockedCmpxchg(cmd, 0, words)
			if swapped {
				break
			}
			if !m.Step() {
				res.Err = "core: DMA engine never freed"
				break
			}
		}
	}
	if res.Err == "" {
		if err := m.Settle("faulty stream drain"); err != nil {
			res.Err = err.Error()
		}
	}
	elapsed := m.Now() - start
	after := s.dst.NIC.Stats()
	net := m.Net.Stats()
	srcStats := s.src.NIC.Stats()
	res.GoodBytes = after.BytesIn - before.BytesIn
	res.Elapsed = elapsed
	if elapsed > 0 {
		res.GoodputMBps = float64(res.GoodBytes) / 1e6 / elapsed.Seconds()
	}
	res.FaultDrops = net.FaultDropped - netBefore.FaultDropped
	res.Corrupts = net.FaultCorrupted - netBefore.FaultCorrupted
	res.Retransmits = srcStats.RelRetransmits
	res.AcksSent = after.RelAcksSent - before.RelAcksSent
	res.NacksSent = after.RelNacksSent - before.RelNacksSent
	res.DupDrops = after.RelDupDrops - before.RelDupDrops
	if m.Cfg.Metrics {
		// Window the end-to-end stage histogram to this point's spans: the
		// sweep pool reuses machines, so the registry may hold older runs.
		lat := m.Obs.StageHist(obs.HistStageTotal)
		d := lat.Delta(&latBefore)
		res.LatP50 = sim.Time(d.QuantileInterp(0.50))
		res.LatP99 = sim.Time(d.QuantileInterp(0.99))
		res.LatP999 = sim.Time(d.QuantileInterp(0.999))
	}
	res.Events = m.Fired()
	return res
}

// FaultSweep measures goodput across packet drop rates (parts per
// million) with reliable delivery enabled, fanned across workers
// goroutines (workers <= 0 selects exp.DefaultWorkers, workers == 1
// runs inline); results are ordered as dropsPPM. The base config's
// seed, rates and plan are kept; only DropPPM varies per point.
func FaultSweep(cfg Config, dropsPPM []uint32, transferBytes, totalBytes, workers int) []FaultPoint {
	return exp.Map(workers, len(dropsPPM), newMachinePool,
		func(p *machinePool, i int) FaultPoint {
			c := cfg
			c.Faults.DropPPM = dropsPPM[i]
			c.Faults.Reliable = true
			return MeasureFaultyTransfer(p.get(c), 0, c.NodeCount()-1, transferBytes, totalBytes)
		})
}
