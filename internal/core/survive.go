package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Degraded-mode availability harness: the experiment behind the crash
// survival claim. A ring workload keeps every node both sending and
// receiving; the fault plan crashes nodes mid-run; with Survivable
// armed the run must complete with no machine check, the survivors'
// flows must deliver every word, and the crashed peers' mappings must
// be torn down. Everything reported is deterministic: the same config
// produces bit-identical AvailabilityPoints run to run and across Reset
// replays.

// AvailabilityPoint is one measured crash-survival run. Comparable, so
// differential tests can assert bit-identity with ==.
type AvailabilityPoint struct {
	Crashes       int    // nodes the fault plan crashed
	Flows         int    // ring flows driven (one per node)
	GoodFlows     int    // survivor→survivor flows that verified fully
	GoodWords     uint64 // words verified across those flows
	BadWords      uint64 // words a survivor flow lost or corrupted (must be 0)
	PeerDowns     uint64 // failure-detector declarations, machine-wide
	PeerDownDrops uint64 // sends suppressed against declared-dead peers
	MapsTorn      uint64 // mapping records quarantined by peer-down teardown
	PingsSent     uint64 // heartbeat probes issued
	MemSum        uint64 // FNV-1a over every surviving receive page
	Elapsed       sim.Time
	// Tail latency of the end-to-end pipeline over the run's spans
	// (zero unless Metrics is on).
	LatP50  sim.Time
	LatP99  sim.Time
	LatP999 sim.Time
	Events  uint64
	Err     string // non-empty when the run ended in a machine check
}

func (p AvailabilityPoint) String() string {
	if p.Err != "" {
		return fmt.Sprintf("crashes %d: FAILED: %s", p.Crashes, p.Err)
	}
	s := fmt.Sprintf("crashes %d: %d/%d flows good, %d words verified, %d peer-downs, %d drops, %d maps torn, sum %016x",
		p.Crashes, p.GoodFlows, p.Flows, p.GoodWords, p.PeerDowns, p.PeerDownDrops, p.MapsTorn, p.MemSum)
	if p.LatP999 > 0 {
		s += fmt.Sprintf(", lat p50/p99/p999 %v/%v/%v", p.LatP50, p.LatP99, p.LatP999)
	}
	return s
}

// CrashPlan builds a deterministic staggered crash plan: k distinct
// victims spread across an n-node machine, crashing at base,
// base+stagger, ... (k is capped by the fault config's two-fault
// schedule).
func CrashPlan(n, k int, base, stagger sim.Time) [2]fault.NodeFault {
	var plan [2]fault.NodeFault
	if k > len(plan) {
		panic(fmt.Sprintf("core: crash plan holds at most %d faults, got %d", len(plan), k))
	}
	used := make(map[int]bool)
	v := 5 % n
	for i := 0; i < k; i++ {
		for used[v] {
			v = (v + 1) % n
		}
		used[v] = true
		plan[i] = fault.NodeFault{Node: v, Kind: fault.NodeCrash, At: base + sim.Time(i)*stagger}
		v = (v + 7) % n
	}
	return plan
}

// availPattern is the value written to word j of flow i in round r; the
// receive page of a fully-delivered flow ends holding round rounds-1.
func availPattern(i, r, j int) uint32 {
	return uint32(i)<<24 | uint32(r)<<12 | uint32(j)&0xfff | 0x8000_0000
}

// MeasureAvailability runs the ring workload on a post-boot machine:
// every node i maps one page onto node (i+1) mod N with single-write
// automatic update, then drives `rounds` rounds of `wordsPerRound`
// stores each, skipping flows whose endpoint has crashed (a frozen CPU
// stores nothing) or been declared dead (the quarantined mapping would
// fault). Crashes come from the machine's Cfg.Faults.Nodes. A machine
// check or blown event budget, set-up included, comes back in Err.
func MeasureAvailability(m *Machine, rounds, wordsPerRound int) AvailabilityPoint {
	n := m.Cfg.NodeCount()
	if wordsPerRound <= 0 || wordsPerRound > phys.PageSize/4 {
		panic("core: availability words per round must fit one page")
	}
	crashed := make([]bool, n)
	res := AvailabilityPoint{Flows: n}
	for _, nf := range m.Cfg.Faults.Nodes {
		if nf.Kind == fault.NodeCrash {
			crashed[nf.Node] = true
			res.Crashes++
		}
	}

	// Ring flow setup, tolerant of crashes that land mid-setup: a flow
	// whose destination is already declared dead (or whose source
	// already crashed) is dead at birth and skipped throughout — the
	// interesting crashes land later, during the write rounds, but an
	// aggressive plan must degrade rather than wedge the harness.
	type flow struct {
		src, dst *Node
		ps, pd   *kernel.Process
		sendVA   vm.VAddr
		recvVA   vm.VAddr
		dead     bool
	}
	flows := make([]*flow, n)
	for i := 0; i < n; i++ {
		src, dst := m.Node(i), m.Node((i+1)%n)
		f := &flow{src: src, dst: dst, ps: src.K.CreateProcess(), pd: dst.K.CreateProcess()}
		var err error
		if f.sendVA, err = f.ps.AllocPages(1); err != nil {
			panic(err)
		}
		if f.recvVA, err = f.pd.AllocPages(1); err != nil {
			panic(err)
		}
		if src.NIC.Dead() || src.K.PeerIsDown(dst.ID) {
			f.dead = true
		} else {
			_, fut := src.K.Map(f.ps, f.sendVA, phys.PageSize, dst.ID, f.pd.PID, f.recvVA, nipt.SingleWriteAU)
			switch err := m.Await(fut); {
			case err == nil:
			case errors.Is(err, fault.ErrPeerDown):
				f.dead = true
			default:
				res.Err = fmt.Sprintf("core: availability flow %d map: %v", i, err)
				res.Events = m.Fired()
				return res
			}
		}
		flows[i] = f
	}
	if err := m.Settle("availability setup"); err != nil {
		res.Err = err.Error()
		res.Events = m.Fired()
		return res
	}
	var latBefore obs.Histogram
	if m.Cfg.Metrics {
		latBefore = m.Obs.StageHist(obs.HistStageTotal)
	}
	start := m.Now()
	round := make([]byte, 4*wordsPerRound)

	// The write rounds. Crash events fire on the simulated timeline as
	// stores advance it; a flow is skipped the moment its source is dead
	// (frozen CPUs store nothing) or its source kernel has quarantined
	// the destination. Stores into a crashed-but-undetected destination
	// proceed — they are exactly the traffic that trips the failure
	// detector — and a translate fault racing the quarantine is skipped
	// like the quarantine itself.
rounds:
	for r := 0; r < rounds; r++ {
		for i, f := range flows {
			if err := m.Failed(); err != nil {
				res.Err = err.Error()
				break rounds
			}
			if f.dead || f.src.NIC.Dead() || f.src.K.PeerIsDown(f.dst.ID) {
				continue
			}
			for j := 0; j < wordsPerRound; j++ {
				binary.LittleEndian.PutUint32(round[4*j:], availPattern(i, r, j))
			}
			// An error means the words before the failing one landed;
			// a quarantine landing mid-round ends only this flow's round.
			if err := f.src.UserWriteBytes(f.ps, f.sendVA, round); err != nil && !crashed[int(f.dst.ID)] {
				res.Err = fmt.Sprintf("flow %d round %d: %v", i, r, err)
				break rounds
			}
		}
	}
	if res.Err == "" {
		if err := m.Settle("availability drain"); err != nil {
			res.Err = err.Error()
		}
	}
	res.Elapsed = m.Now() - start

	// Verification and the memory checksum. Survivor→survivor flows
	// must hold the final round's pattern in full; receive pages on
	// surviving nodes are folded into the checksum regardless of the
	// sender's fate (their content is deterministic — the crash instant
	// is part of the plan).
	const fnvOffset, fnvPrime = uint64(14695981039346656037), uint64(1099511628211)
	sum := fnvOffset
	for i, f := range flows {
		if crashed[int(f.dst.ID)] {
			continue
		}
		goodFlow := !crashed[i] && !f.dead && res.Err == ""
		for j := 0; j < wordsPerRound; j++ {
			v, err := f.dst.UserRead32(f.pd, f.recvVA+vm.VAddr(4*j))
			if err != nil {
				panic(err) // survivor receive pages never unmap
			}
			for s := 0; s < 32; s += 8 {
				sum ^= uint64(v>>s) & 0xff
				sum *= fnvPrime
			}
			if !crashed[i] && !f.dead && res.Err == "" {
				if v == availPattern(i, rounds-1, j) {
					res.GoodWords++
				} else {
					res.BadWords++
					goodFlow = false
				}
			}
		}
		if goodFlow {
			res.GoodFlows++
		}
	}
	res.MemSum = sum

	for _, node := range m.Nodes {
		ns := node.NIC.Stats()
		res.PeerDowns += ns.PeerDowns
		res.PeerDownDrops += ns.PeerDownDrops
		ks := node.K.Stats()
		res.MapsTorn += ks.PeerMapsTorn
		res.PingsSent += ks.PingsSent
	}
	if m.Cfg.Metrics {
		lat := m.Obs.StageHist(obs.HistStageTotal)
		d := lat.Delta(&latBefore)
		res.LatP50 = sim.Time(d.QuantileInterp(0.50))
		res.LatP99 = sim.Time(d.QuantileInterp(0.99))
		res.LatP999 = sim.Time(d.QuantileInterp(0.999))
	}
	res.Events = m.Fired()
	return res
}

// AvailabilitySweep measures availability across crash counts, fanned
// across workers goroutines (workers <= 0 selects exp.DefaultWorkers,
// 1 runs inline); results are ordered as crashes. Each point runs the
// base config with Reliable+Survivable forced on and a CrashPlan of
// crashes[i] victims staggered from crashBase by crashStagger.
func AvailabilitySweep(cfg Config, crashes []int, crashBase, crashStagger sim.Time,
	rounds, wordsPerRound, workers int) []AvailabilityPoint {
	return exp.Map(workers, len(crashes), newMachinePool,
		func(p *machinePool, i int) AvailabilityPoint {
			c := cfg
			c.Faults.Reliable = true
			c.Faults.Survivable = true
			c.Faults.Nodes = CrashPlan(c.NodeCount(), crashes[i], crashBase, crashStagger)
			return MeasureAvailability(p.get(c), rounds, wordsPerRound)
		})
}
