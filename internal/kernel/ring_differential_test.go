package kernel_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/sim"
)

// Differential tests for first-contact ring install. Installing a ring
// pair's NIPT entries when its kernels first talk must be
// indistinguishable from installing every ring at boot, the layout it
// replaced: kernel.SetEagerRings runs that layout as the reference.
// Every harness result, the machine's clock and event count, and every
// node's NIC, bus, cache and kernel statistics must match.

// nodeStats is every statistic one node keeps.
type nodeStats struct {
	NIC    nic.Stats
	Xbus   bus.XpressStats
	EISA   bus.EISAStats
	Cache  cache.Stats
	Kernel kernel.Stats
}

// ringRun is what one harness run on one machine observes.
type ringRun struct {
	Result any
	Now    sim.Time
	Fired  uint64
	Nodes  []nodeStats
}

// observe records m's state after a harness returned result on it.
func observe(m *core.Machine, result any) ringRun {
	r := ringRun{Result: result, Now: m.Now(), Fired: m.Fired()}
	for _, n := range m.Nodes {
		s := nodeStats{NIC: n.NIC.Stats(), Xbus: n.Xbus.Stats(), Cache: n.Cache.Stats(), Kernel: n.K.Stats()}
		if n.EISA != nil {
			s.EISA = n.EISA.Stats()
		}
		r.Nodes = append(r.Nodes, s)
	}
	return r
}

// on runs f on a machine booted from cfg.
func on(cfg core.Config, f func(m *core.Machine) any) ringRun {
	m := core.New(cfg)
	return observe(m, f(m))
}

// sweep runs f for points 0..n-1 on one machine booted from cfg, reset
// between points as the sweep pools reuse machines, and observes each.
func sweep(cfg core.Config, n int, f func(m *core.Machine, i int) any) []ringRun {
	m := core.New(cfg)
	runs := make([]ringRun, n)
	for i := range runs {
		if i > 0 {
			m.Reset()
		}
		runs[i] = observe(m, f(m, i))
	}
	return runs
}

// faultCfg is the faults benchmark's availability config: a 4x4 Xpress
// ring with reliable delivery, crash survival, heartbeats, metrics and
// the flight recorder, crashing the first k nodes of a fixed plan.
func faultCfg(k int) core.Config {
	cfg := core.ConfigFor(4, 4, nic.GenXpress)
	cfg.Metrics = true
	cfg.Recorder.Interval = 10 * sim.Microsecond
	cfg.Faults = fault.Config{
		Seed: 7, Reliable: true, Survivable: true,
		Heartbeat: 200 * sim.Microsecond, RetryBudget: 6, AckTimeout: 10 * sim.Microsecond,
	}
	plan := core.CrashPlan(cfg.NodeCount(), 2, 430*sim.Microsecond, 120*sim.Microsecond)
	copy(cfg.Faults.Nodes[:], plan[:k])
	return cfg
}

// ringCase is one harness the differential covers: run observes every
// machine it uses, under the install mode in force.
type ringCase struct {
	name string
	run  func() []ringRun
}

// ringCases lists every harness the differential covers.
func ringCases() []ringCase {
	eisa2, xpress2 := core.ConfigFor(2, 1, nic.GenEISAPrototype), core.ConfigFor(2, 1, nic.GenXpress)
	eisa16, xpress16 := core.ConfigFor(4, 4, nic.GenEISAPrototype), core.ConfigFor(4, 4, nic.GenXpress)
	table1 := func(cfg core.Config) func() []ringRun {
		return func() []ringRun {
			return []ringRun{
				on(cfg, func(m *core.Machine) any { return msg.MeasureSingleBuffering(m, false) }),
				on(cfg, func(m *core.Machine) any { return msg.MeasureSingleBuffering(m, true) }),
				on(cfg, func(m *core.Machine) any { return msg.MeasureDoubleBuffering(m, 1) }),
				on(cfg, func(m *core.Machine) any { return msg.MeasureDoubleBuffering(m, 2) }),
				on(cfg, func(m *core.Machine) any { return msg.MeasureDoubleBuffering(m, 3) }),
				on(cfg, func(m *core.Machine) any { return msg.MeasureDeliberateUpdate(m) }),
				on(cfg, func(m *core.Machine) any { return msg.MeasureNX2(m) }),
			}
		}
	}
	e2 := func(cfg core.Config) func() []ringRun {
		return func() []ringRun {
			runs := sweep(cfg, cfg.NodeCount()-1, func(m *core.Machine, i int) any {
				return core.MeasureStoreLatency(m, 0, i+1)
			})
			return append(runs, on(cfg, func(m *core.Machine) any { return core.MaxLatency(m) }))
		}
	}
	e3 := func(cfg core.Config) func() []ringRun {
		sizes := []int{64, 256, 1024, 4096}
		return func() []ringRun {
			return sweep(cfg, len(sizes), func(m *core.Machine, i int) any {
				return core.MeasureDeliberateBandwidth(m, 0, 1, sizes[i], 64*1024)
			})
		}
	}
	return []ringCase{
		{"table1/eisa", table1(eisa2)},
		{"table1/xpress", table1(xpress2)},
		{"e2/eisa", e2(eisa16)},
		{"e2/xpress", e2(xpress16)},
		{"e3/eisa", e3(eisa2)},
		{"e3/xpress", e3(xpress2)},
		{"a1", func() []ringRun {
			modes := []nipt.Mode{nipt.SingleWriteAU, nipt.BlockedWriteAU}
			return sweep(eisa2, len(modes), func(m *core.Machine, i int) any {
				return core.MeasureAUBandwidth(m, modes[i], 4000)
			})
		}},
		{"a2", func() []ringRun {
			return []ringRun{on(eisa2, func(m *core.Machine) any { return flowControl(m) })}
		}},
		{"a3", func() []ringRun {
			var runs []ringRun
			for _, policy := range []kernel.PagingPolicy{kernel.PinPages, kernel.InvalidateProtocol} {
				cfg := core.ConfigFor(2, 2, nic.GenEISAPrototype)
				cfg.Kernel.Policy = policy
				runs = append(runs, on(cfg, func(m *core.Machine) any { return evictImported(m) }))
			}
			return runs
		}},
		{"destroy", func() []ringRun {
			cfg := core.ConfigFor(2, 2, nic.GenEISAPrototype)
			cfg.Kernel.Policy = kernel.InvalidateProtocol
			return []ringRun{on(cfg, func(m *core.Machine) any { return destroyShared(m) })}
		}},
		{"a4", func() []ringRun {
			return []ringRun{on(eisa2, func(m *core.Machine) any { return core.MeasureOverlap(m, nipt.BlockedWriteAU, 400) })}
		}},
		{"a5", func() []ringRun {
			var runs []ringRun
			for _, w := range []sim.Time{20 * sim.Nanosecond, 150 * sim.Nanosecond, 2 * sim.Microsecond} {
				cfg := eisa2
				cfg.NIC.MergeWindow = w
				runs = append(runs, on(cfg, func(m *core.Machine) any { return core.MeasureMergeWindow(m, 100*sim.Nanosecond, 256) }))
			}
			return runs
		}},
		{"allreduce-4x4", func() []ringRun {
			return []ringRun{on(eisa16, func(m *core.Machine) any {
				total, err := allreduceRound(m, 4, 4, 1)
				if err != nil {
					panic(err)
				}
				return total
			})}
		}},
		{"fault-sweep", func() []ringRun {
			// FaultSweep itself, then each of its points on a machine of
			// its own, for the statistics.
			cfg := xpress2
			cfg.Metrics = true
			cfg.Faults = fault.Config{Seed: 3, Reliable: true}
			drops := []uint32{0, 25000, 50000}
			runs := []ringRun{{Result: core.FaultSweep(cfg, drops, 1024, 32*1024, 1)}}
			for _, drop := range drops {
				cfg.Faults.DropPPM = drop
				runs = append(runs, on(cfg, func(m *core.Machine) any { return core.MeasureFaultyTransfer(m, 0, 1, 1024, 32*1024) }))
			}
			return runs
		}},
		{"availability", func() []ringRun {
			var runs []ringRun
			for k := 0; k <= 2; k++ {
				runs = append(runs, on(faultCfg(k), func(m *core.Machine) any { return core.MeasureAvailability(m, 6, 64) }))
			}
			return runs
		}},
	}
}

// flowControl is the A2 ablation: a deliberate-update sender
// saturating a slow receiver through a BlockSender.
func flowControl(m *core.Machine) any {
	bs, err := msg.NewBlockSender(m, msg.NewEndpoint(m.Node(0)), msg.NewEndpoint(m.Node(1)), 4)
	if err != nil {
		panic(err)
	}
	if err := bs.Write(0, make([]byte, 4*4096)); err != nil {
		panic(err)
	}
	for i := 0; i < 16; i++ {
		if err := bs.Send(0, 4*4096); err != nil {
			panic(err)
		}
	}
	return m.RunUntilIdle(500_000_000)
}

// evictImported is the A3 ablation: three senders map into one page of
// node 3, which then evicts it under the machine's paging policy.
func evictImported(m *core.Machine) any {
	rcv := m.Node(3)
	pr := rcv.K.CreateProcess()
	recvVA, _ := pr.AllocPages(1)
	for i := 0; i < 3; i++ {
		ps := m.Node(i).K.CreateProcess()
		sendVA, _ := ps.AllocPages(1)
		m.MustMap(ps, sendVA, 4096, rcv.ID, pr.PID, recvVA, nipt.SingleWriteAU)
	}
	err := m.Await(rcv.K.EvictPage(pr, recvVA.Page()))
	return fmt.Sprint(err, m.RunUntilIdle(50_000_000))
}

// destroyShared destroys a process of node 3 that maps a page out to
// each other node and that each other node maps a page into: the
// teardown sends three unmap-in and three invalidation requests.
func destroyShared(m *core.Machine) any {
	victim := m.Node(3).K.CreateProcess()
	for i := 0; i < 3; i++ {
		peer := m.Node(i).K.CreateProcess()
		out, _ := victim.AllocPages(1)
		in, _ := victim.AllocPages(1)
		peerIn, _ := peer.AllocPages(1)
		peerOut, _ := peer.AllocPages(1)
		m.MustMap(victim, out, 4096, m.Node(i).ID, peer.PID, peerIn, nipt.SingleWriteAU)
		m.MustMap(peer, peerOut, 4096, m.Node(3).ID, victim.PID, in, nipt.SingleWriteAU)
	}
	err := m.Await(m.Node(3).K.DestroyProcess(victim))
	return fmt.Sprint(err, m.RunUntilIdle(50_000_000))
}

// allreduceRound runs one round of the allreduce benchmark's sum over a
// w×h machine: a channel pair between each node and its parent on a
// spanning tree (columns into row 0, row 0 into node 0), seeded 1 KB
// vectors of 64-bit words, partial sums sent up once a node has its
// children's, the total forwarded down once received. It returns the
// total every node received.
func allreduceRound(m *core.Machine, w, h int, seed uint64) ([]byte, error) {
	n := w * h
	eps := make([]msg.Endpoint, n)
	for i := range eps {
		eps[i] = msg.NewEndpoint(m.Node(i))
	}
	kids := make([][]int, n)
	up, down := make([]*msg.Channel, n), make([]*msg.Channel, n)
	for c := 1; c < n; c++ {
		parent := c - w
		if c < w {
			parent = c - 1
		}
		kids[parent] = append(kids[parent], c)
		var err error
		if up[c], err = msg.NewChannel(m, eps[c], eps[parent], 2); err != nil {
			return nil, err
		}
		if down[c], err = msg.NewChannel(m, eps[parent], eps[c], 2); err != nil {
			return nil, err
		}
	}
	const size = 1024
	acc := make([][]byte, n)
	for v := range acc {
		acc[v] = make([]byte, size)
		for off := 0; off < size; off += 8 {
			seed = seed*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(acc[v][off:], seed)
		}
	}
	for v := n - 1; v >= 0; v-- {
		for _, c := range kids[v] {
			got, err := up[c].Recv()
			if err != nil {
				return nil, err
			}
			for off := 0; off < size; off += 8 {
				sum := binary.LittleEndian.Uint64(acc[v][off:]) + binary.LittleEndian.Uint64(got[off:])
				binary.LittleEndian.PutUint64(acc[v][off:], sum)
			}
		}
		if v > 0 {
			if err := up[v].Send(acc[v]); err != nil {
				return nil, err
			}
		}
	}
	for v := 0; v < n; v++ {
		if v > 0 {
			got, err := down[v].Recv()
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, acc[0]) {
				return nil, fmt.Errorf("node %d received a total that differs from the root's", v)
			}
		}
		for _, c := range kids[v] {
			if err := down[c].Send(acc[0]); err != nil {
				return nil, err
			}
		}
	}
	return acc[0], m.RunUntilIdle(4_000_000_000)
}

// TestRingInstallDifferential runs every harness with rings installed
// at first contact and with every ring installed at boot, and requires
// identical observations.
func TestRingInstallDifferential(t *testing.T) {
	for _, c := range ringCases() {
		t.Run(c.name, func(t *testing.T) {
			got := c.run()
			kernel.SetEagerRings(true)
			defer kernel.SetEagerRings(false)
			want := c.run()
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("machine %d differs from eager install:\n got  %+v\n want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestEagerRingsInstallAtBoot checks the reference against the default:
// with first-contact install no node has built a NIPT chunk after New or
// after Reset, and with eager install every node's rings are in its
// NIPT after both.
func TestEagerRingsInstallAtBoot(t *testing.T) {
	cfg := core.ConfigFor(3, 3, nic.GenXpress)
	check := func(m *core.Machine, eager bool) {
		t.Helper()
		for pass := 0; pass < 2; pass++ {
			for _, n := range m.Nodes {
				table := n.NIC.Table()
				if ring := table.At(0); ring.KernelRing != eager || (table.BuiltChunks() != 0) != eager {
					t.Fatalf("eager %v, pass %d: node %d ring entry %+v, %d chunks built", eager, pass, n.ID, ring, table.BuiltChunks())
				}
			}
			m.Reset()
		}
	}
	check(core.New(cfg), false)
	kernel.SetEagerRings(true)
	defer kernel.SetEagerRings(false)
	check(core.New(cfg), true)
}

// TestAllreduce32x32Footprint runs one allreduce round on the 32x32
// machine the north star asks for, sized as the allreduce benchmark
// sizes its 16x16 one (2(n-1) ring pages and 1,024 working pages per
// node), and bounds the heap it holds live. With every ring installed
// at boot the machine alone held 57 MB and the round 143 MB; with
// first-contact install the round holds 54 MB.
func TestAllreduce32x32Footprint(t *testing.T) {
	cfg := core.ConfigFor(32, 32, nic.GenEISAPrototype)
	cfg.MemPagesPerNode = kernel.RingPages(cfg.NodeCount()) + 1024
	m := core.New(cfg)
	total, err := allreduceRound(m, 32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(m)
	t.Logf("after a 32x32 allreduce round: %.1f MB live, %d events", live, m.Fired())
	const maxMB = 75
	if live >= maxMB {
		t.Errorf("a 32x32 allreduce round holds %.1f MB live, want under %d MB", live, maxMB)
	}
	if len(total) != 1024 {
		t.Fatalf("round returned %d bytes", len(total))
	}
}
