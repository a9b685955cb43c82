package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/phys"
)

// Validate checks a configuration for shapes the models cannot operate
// under. New panics on an invalid config; callers that assemble configs
// programmatically can call Validate first for a graceful error.
func (c Config) Validate() error {
	if c.MeshWidth < 1 || c.MeshHeight < 1 {
		return fmt.Errorf("core: mesh %dx%d invalid", c.MeshWidth, c.MeshHeight)
	}
	if c.Mesh.Width != c.MeshWidth || c.Mesh.Height != c.MeshHeight {
		return fmt.Errorf("core: mesh config %dx%d disagrees with machine %dx%d",
			c.Mesh.Width, c.Mesh.Height, c.MeshWidth, c.MeshHeight)
	}
	n := c.NodeCount()
	if c.SpanCapacity < 0 {
		return fmt.Errorf("core: span capacity %d negative", c.SpanCapacity)
	}
	if c.Recorder.Interval < 0 {
		return fmt.Errorf("core: recorder interval %v negative", c.Recorder.Interval)
	}
	if c.Recorder.Capacity < 0 {
		return fmt.Errorf("core: recorder capacity %d negative", c.Recorder.Capacity)
	}
	if c.Recorder.Interval > 0 && !c.Metrics {
		return fmt.Errorf("core: the flight recorder samples the metrics registry; set Metrics: true")
	}
	if ring := kernel.RingPages(n); ring+8 > c.MemPagesPerNode {
		return fmt.Errorf("core: %d pages/node cannot hold %d kernel ring pages plus working memory",
			c.MemPagesPerNode, ring)
	}
	if c.MemPagesPerNode > phys.MaxPages {
		// The command space sits directly above DRAM and is as large;
		// past MaxPages it wraps the 32-bit physical address.
		return fmt.Errorf("core: %d pages/node leave no room for the command space (at most %d)",
			c.MemPagesPerNode, phys.MaxPages)
	}
	if c.NIC.MaxPayload <= 0 || c.NIC.MaxPayload > phys.PageSize {
		return fmt.Errorf("core: NIC max payload %d outside (0,%d]", c.NIC.MaxPayload, phys.PageSize)
	}
	// The §4 thresholds need headroom: everything that can still arrive
	// after the threshold trips must fit. A full page plus header is the
	// largest single packet.
	maxWire := (&packet.Packet{Payload: make([]byte, c.NIC.MaxPayload)}).WireSize()
	if c.NIC.OutThreshold <= 0 || c.NIC.OutThreshold >= c.NIC.OutFIFOBytes {
		return fmt.Errorf("core: outgoing FIFO threshold %d outside (0,%d)",
			c.NIC.OutThreshold, c.NIC.OutFIFOBytes)
	}
	if c.NIC.OutFIFOBytes-c.NIC.OutThreshold < 8*maxWire {
		return fmt.Errorf("core: outgoing FIFO headroom %d cannot absorb in-flight packetization (need %d)",
			c.NIC.OutFIFOBytes-c.NIC.OutThreshold, 8*maxWire)
	}
	if c.NIC.InThreshold <= 0 || c.NIC.InThreshold >= c.NIC.InFIFOBytes {
		return fmt.Errorf("core: incoming FIFO threshold %d outside (0,%d)",
			c.NIC.InThreshold, c.NIC.InFIFOBytes)
	}
	if c.NIC.InFIFOBytes-c.NIC.InThreshold < maxWire {
		return fmt.Errorf("core: incoming FIFO headroom %d cannot absorb one max packet (%d)",
			c.NIC.InFIFOBytes-c.NIC.InThreshold, maxWire)
	}
	if c.Generation == 0 && c.EISA.BytesPerSecond <= 0 {
		return fmt.Errorf("core: EISA generation needs a positive deposit rate")
	}
	if c.Cache.Sets <= 0 || c.Cache.Ways <= 0 || c.Cache.LineBytes <= 0 {
		return fmt.Errorf("core: cache sets (%d), ways (%d) and line size (%d) must be positive",
			c.Cache.Sets, c.Cache.Ways, c.Cache.LineBytes)
	}
	if c.Cache.Sets&(c.Cache.Sets-1) != 0 || c.Cache.LineBytes&(c.Cache.LineBytes-1) != 0 {
		return fmt.Errorf("core: cache sets (%d) and line size (%d) must be powers of two",
			c.Cache.Sets, c.Cache.LineBytes)
	}
	// A shorter line splits a word over more than two lines; a longer
	// one spans pages, so FlushPage misses it.
	if c.Cache.LineBytes < 4 || c.Cache.LineBytes > phys.PageSize {
		return fmt.Errorf("core: cache line size %d outside [4,%d]", c.Cache.LineBytes, phys.PageSize)
	}
	if c.CPU.CycleTime <= 0 {
		return fmt.Errorf("core: CPU cycle time must be positive")
	}
	if c.Mesh.FlitBytes <= 0 || c.Mesh.FlitCycle <= 0 {
		return fmt.Errorf("core: mesh flit parameters must be positive")
	}
	return c.validateFaults()
}

// validateFaults checks the fault plan against the machine shape.
func (c Config) validateFaults() error {
	f := c.Faults
	if !f.Enabled() {
		return nil
	}
	for _, ppm := range [...]uint32{f.DropPPM, f.CorruptPPM, f.DupPPM, f.StallPPM} {
		if ppm > 1_000_000 {
			return fmt.Errorf("core: fault rate %d ppm exceeds 1e6", ppm)
		}
	}
	if f.RetryBudget < 0 || f.AckTimeout < 0 || f.StallTime < 0 {
		return fmt.Errorf("core: fault tunables must be non-negative")
	}
	if f.Survivable && !f.Reliable {
		return fmt.Errorf("core: Faults.Survivable requires Reliable delivery; " +
			"the retry budget is the failure detector")
	}
	if f.Heartbeat < 0 {
		return fmt.Errorf("core: heartbeat period %v negative", f.Heartbeat)
	}
	if f.Heartbeat > 0 && !f.Survivable {
		return fmt.Errorf("core: Faults.Heartbeat is the Survivable-mode liveness sweep; " +
			"set Survivable (and Reliable) to use it")
	}
	n := c.NodeCount()
	if f.LinkDownAt > 0 {
		if f.LinkFrom < 0 || f.LinkFrom >= n || f.LinkTo < 0 || f.LinkTo >= n {
			return fmt.Errorf("core: link fault nodes %d->%d outside machine of %d nodes",
				f.LinkFrom, f.LinkTo, n)
		}
		from, to := c.CoordOf(packet.NodeID(f.LinkFrom)), c.CoordOf(packet.NodeID(f.LinkTo))
		if from.Hops(to) != 1 {
			return fmt.Errorf("core: link fault %v->%v is not a mesh link", from, to)
		}
		if f.LinkRepairAt != 0 && f.LinkRepairAt <= f.LinkDownAt {
			return fmt.Errorf("core: link repair at %v not after outage at %v",
				f.LinkRepairAt, f.LinkDownAt)
		}
	}
	for _, nf := range f.Nodes {
		if nf.Kind == fault.NodeOK {
			continue
		}
		if nf.Node < 0 || nf.Node >= n {
			return fmt.Errorf("core: node fault targets node %d of %d", nf.Node, n)
		}
		if nf.At <= 0 {
			return fmt.Errorf("core: node fault on node %d needs a positive schedule time", nf.Node)
		}
		if nf.Until != 0 && nf.Until <= nf.At {
			return fmt.Errorf("core: node fault thaw at %v not after freeze at %v", nf.Until, nf.At)
		}
	}
	return nil
}
