// Package core assembles SHRIMP machines: N nodes — each a CPU, cache,
// Xpress memory bus, EISA expansion bus, DRAM, network interface and
// kernel — connected by a Paragon-style wormhole mesh (paper §3,
// Figure 2). It also hands every kernel the machine's NIPTs, through
// which a pair of kernels installs the message rings that the map()
// system call and the §4.4 consistency protocol ride on when it first
// talks.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mesh"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Config describes a whole machine.
type Config struct {
	MeshWidth, MeshHeight int
	MemPagesPerNode       int
	Generation            nic.Generation
	// Metrics attaches the machine-wide observability registry
	// (internal/obs): per-node counters and histograms, per-link mesh
	// stats, and causal packet spans. Off by default; enabling it never
	// changes simulated results, only records them.
	Metrics bool
	// SpanCapacity bounds concurrently-active and retained-completed
	// causal spans when Metrics is on (0 selects
	// obs.DefaultSpanCapacity).
	SpanCapacity int
	// Recorder arms the flight recorder (obs.Recorder): the registry is
	// sampled into a preallocated ring every Recorder.Interval of
	// simulated time, giving counters and gauges a time series and
	// histograms windowed rates. Requires Metrics. The zero value
	// disables it; arming it changes no simulated result (see
	// internal/sim/pacer.go).
	Recorder obs.RecorderConfig
	// Faults configures the deterministic fault-injection subsystem
	// (internal/fault). The zero value disables it entirely: no injector
	// is built and the machine is bit-identical to one without the
	// subsystem.
	Faults fault.Config

	Mesh   mesh.Config
	Xpress bus.XpressConfig
	EISA   bus.EISAConfig
	Cache  cache.Config
	NIC    nic.Config
	CPU    isa.Config
	Kernel kernel.Config
}

// ConfigFor builds a config for the given mesh size and NIC generation.
func ConfigFor(w, h int, gen nic.Generation) Config {
	cfg := Config{
		MeshWidth:       w,
		MeshHeight:      h,
		MemPagesPerNode: 1024, // 4 MB
		Generation:      gen,
		Mesh:            mesh.DefaultConfig(w, h),
		Xpress:          bus.DefaultXpressConfig(),
		EISA:            bus.DefaultEISAConfig(),
		Cache:           cache.DefaultConfig(),
		NIC:             nic.DefaultConfig(),
		CPU:             isa.DefaultConfig(),
		Kernel:          kernel.DefaultConfig(),
	}
	cfg.NIC.Generation = gen
	return cfg
}

// Node is one SHRIMP node (Figure 2). Eng is the machine's engine.
type Node struct {
	Eng   *sim.Engine
	ID    packet.NodeID
	Coord packet.Coord
	Mem   *phys.Memory
	Xbus  *bus.Xpress
	EISA  *bus.EISA
	Cache *cache.Cache
	NIC   *nic.NIC
	CPU   *isa.CPU
	Box   *kernel.MemBox
	K     *kernel.Kernel

	m *Machine // for run loops in user accessors
}

// Machine is a booted SHRIMP multicomputer. Eng is the one engine every
// node and the mesh run on; the Machine's clock and run methods (Now,
// Step, RunWhile, RunFor, Fired, Failed) are shorthands for it.
type Machine struct {
	Eng    *sim.Engine
	Cfg    Config
	Net    *mesh.Network
	Nodes  []*Node
	Obs    *obs.Registry   // nil unless Config.Metrics
	Rec    *obs.Recorder   // nil unless Config.Recorder armed
	Faults *fault.Injector // nil unless Config.Faults.Enabled()
}

// CoordOf maps a node id to its mesh coordinates (row-major).
func (c Config) CoordOf(id packet.NodeID) packet.Coord { return packet.CoordOf(id, c.MeshWidth) }

// NodeCount returns the number of nodes in the machine.
func (c Config) NodeCount() int { return c.MeshWidth * c.MeshHeight }

// New boots a machine: builds every node, attaches them to the mesh, and
// runs every kernel's boot step. No kernel ring is installed until its
// pair of kernels first talks (kernel.installRing).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	net := mesh.New(eng, cfg.Mesh)
	m := &Machine{Eng: eng, Cfg: cfg, Net: net}
	if cfg.Metrics {
		m.Obs = obs.New(cfg.NodeCount(), cfg.SpanCapacity)
		net.SetObs(m.Obs)
	}
	if cfg.Faults.Enabled() {
		m.Faults = fault.NewInjector(cfg.Faults, cfg.NodeCount())
		net.SetFaults(m.Faults)
	}

	// Every kernel gets every node's NIPT, so that a pair's first contact
	// installs its rings on both nodes.
	nipts := make([]*nipt.Table, cfg.NodeCount())
	for id := 0; id < cfg.NodeCount(); id++ {
		coord := cfg.CoordOf(packet.NodeID(id))
		mem := phys.NewMemory(cfg.MemPagesPerNode)
		xbus := bus.NewXpress(eng, cfg.Xpress, mem)
		var eisaBus *bus.EISA
		if cfg.Generation == nic.GenEISAPrototype {
			eisaBus = bus.NewEISA(eng, cfg.EISA, xbus)
		}
		ch := cache.New(eng, cfg.Cache, xbus)
		table := nipt.New(cfg.MemPagesPerNode)
		nipts[id] = table
		nicDev := nic.New(eng, cfg.NIC, packet.NodeID(id), coord, table, xbus, eisaBus, net)
		box := &kernel.MemBox{Cache: ch}
		cpu := isa.NewCPU(eng, cfg.CPU, box)
		cpu.SetName(fmt.Sprintf("cpu%d", id))
		cpu.SetDom(sim.DomNode(id))
		k := kernel.New(eng, cfg.Kernel, packet.NodeID(id), nipts, mem, xbus, nicDev, cpu, box)
		scope := m.Obs.Node(id) // nil when metrics are disabled
		nicDev.SetObs(m.Obs)
		xbus.SetObs(scope)
		table.SetObs(scope)
		cpu.SetObs(scope)
		k.Obs = scope
		if m.Faults != nil {
			nicDev.SetFaults(m.Faults)
			k.SetRingCRC(cfg.Faults.Reliable)
			if cfg.Faults.Survivable {
				// Crash survival: the NIC's failure detector feeds the
				// kernel's quarantine pass, and the kernel's completed
				// teardown pins a mark on the flight recorder timeline.
				k.SetSurvivable(true)
				nicDev.OnPeerDown = k.HandlePeerDown
				observer := id
				k.OnPeerDown = func(pd *fault.PeerDown) { m.notePeerDown(observer, pd) }
			}
		}
		m.Nodes = append(m.Nodes, &Node{
			Eng: eng, ID: packet.NodeID(id), Coord: coord, Mem: mem, Xbus: xbus,
			EISA: eisaBus, Cache: ch, NIC: nicDev, CPU: cpu, Box: box, K: k, m: m,
		})
	}
	if cfg.Recorder.Interval > 0 {
		m.Rec = obs.NewRecorder(m.Obs, cfg.Recorder)
		m.Eng.SetPacer(m.Rec)
	}
	m.bootKernels()
	m.applyFaults()
	return m
}

// bootKernels runs every kernel's boot step, which seeds its page
// allocator with the frames above the kernel ring pages.
func (m *Machine) bootKernels() {
	for _, node := range m.Nodes {
		node.K.Boot()
	}
}

// Node returns node i.
func (m *Machine) Node(i int) *Node { return m.Nodes[i] }

// Now returns the machine's simulated clock.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// Fired returns the number of events executed so far.
func (m *Machine) Fired() uint64 { return m.Eng.Fired() }

// Failed returns the machine's recorded failure, if any.
func (m *Machine) Failed() error { return m.Eng.Failed() }

// Step fires the next event; false when no events remain.
func (m *Machine) Step() bool { return m.Eng.Step() }

// RunWhile fires events while cond() holds; false if it stopped early
// (queue drained or a failure was recorded).
func (m *Machine) RunWhile(cond func() bool) bool { return m.Eng.RunWhile(cond) }

// RunFor advances the machine by d, firing everything in the window.
func (m *Machine) RunFor(d sim.Time) { m.Eng.RunFor(d) }

// RunUntilIdle drains the event queue. It returns the machine check a
// component raised through the engine's failure surface, or, when limit
// events fire before the queue drains, an error wrapping sim.ErrBudget:
// the run was truncated, not quiescent.
func (m *Machine) RunUntilIdle(limit uint64) error { return m.Eng.DrainBudget(limit) }

// Await drives the simulation until the future resolves, then returns
// its error. A machine check raised while waiting is returned instead.
// If the event queue runs dry because the issuing node has crashed (its
// kernel will never see the reply), Await returns an error wrapping
// fault.ErrPeerDown; running dry with the issuer alive is a harness bug
// and panics.
func (m *Machine) Await(f *kernel.Future) error {
	ok := m.RunWhile(func() bool { return !f.Done() })
	if !ok && !f.Done() {
		if err := m.Failed(); err != nil {
			return err
		}
		if m.Nodes[f.Node()].NIC.Dead() {
			return fmt.Errorf("core: node %d crashed with its request outstanding: %w", f.Node(), fault.ErrPeerDown)
		}
		panic("core: Await ran out of events before future resolved")
	}
	return f.Err()
}

// MustMap drives the Map syscall to completion and returns the mapping
// handle, panicking on any setup error. The map phase sits outside the
// measured loops, per Figure 1.
func (m *Machine) MustMap(p *kernel.Process, sendVA vm.VAddr, bytes int,
	dst packet.NodeID, dstPID int, recvVA vm.VAddr, mode nipt.Mode) *kernel.Mapping {
	mapping, fut := p.Kernel().Map(p, sendVA, bytes, dst, dstPID, recvVA, mode)
	if err := m.Await(fut); err != nil {
		panic(fmt.Sprintf("core: map failed: %v", err))
	}
	return mapping
}

// UserWrite32 performs a store to p's virtual memory exactly as the CPU
// would: translated through p's page table and issued through the node's
// cache and memory bus, where the NIC snoops it. Like the real CPU, the
// caller experiences the store latency (simulated time advances) and is
// held while the Outgoing FIFO is above its threshold — the §4 "the CPU
// is interrupted and waits until the FIFO drains". Go-level examples and
// tests use it in place of ISA store instructions.
func (n *Node) UserWrite32(p *kernel.Process, va vm.VAddr, v uint32) error {
	return n.userStore(p, va, v, 4)
}

// enter tags the engine with this node's event domain for the duration
// of a harness-initiated component call: anything the call schedules
// carries the node's domain, so the (time, domain, seq) order does not
// depend on which event happened to fire last. The caller must restore
// the returned previous domain.
func (n *Node) enter() sim.Domain {
	return n.Eng.EnterDomain(sim.DomNode(int(n.ID)))
}

func (n *Node) userStore(p *kernel.Process, va vm.VAddr, v uint32, size int) error {
	n.awaitOutFIFO()
	prev := n.enter()
	lat, f := n.Box.StoreAS(p.AS, va, v, size)
	n.Eng.EnterDomain(prev)
	if f != nil {
		return f
	}
	n.m.RunFor(lat)
	return nil
}

// awaitOutFIFO holds a harness store while the Outgoing FIFO is above
// its threshold, as the NIC's interrupt holds the CPU.
func (n *Node) awaitOutFIFO() {
	for n.NIC.OutStalled() {
		if !n.m.Step() {
			break
		}
	}
}

// UserRead32 is the load counterpart of UserWrite32.
func (n *Node) UserRead32(p *kernel.Process, va vm.VAddr) (uint32, error) {
	prev := n.enter()
	v, _, f := n.Box.LoadAS(p.AS, va, 4)
	n.Eng.EnterDomain(prev)
	if f != nil {
		return 0, f
	}
	return v, nil
}

// CacheRead32 loads four bytes at physical address pa through the
// node's cache — the harness form of a user-mode load that already
// holds a translation. Like LockedCmpxchg it keeps the node's event
// domain correct for anything the access schedules (miss fills, dirty
// evictions).
func (n *Node) CacheRead32(pa phys.PAddr) uint32 {
	prev := n.enter()
	v, _ := n.Cache.Load(pa, 4)
	n.Eng.EnterDomain(prev)
	return v
}

// LockedCmpxchg performs an atomic compare-exchange on p's virtual
// address space through the node's cache, as a LOCK CMPXCHG instruction
// would. Harness code uses it in place of issuing the instruction; it
// keeps the node's event domain correct, which direct Cache access from
// outside an event would not.
func (n *Node) LockedCmpxchg(pa phys.PAddr, expect, repl uint32) (uint32, bool, sim.Time) {
	prev := n.enter()
	read, swapped, lat := n.Cache.LockedCmpxchg(pa, expect, repl)
	n.Eng.EnterDomain(prev)
	return read, swapped, lat
}

// UserWriteBytes stores b at va with exactly the effect of one
// UserWrite32 per whole 4-byte word and then one one-byte store per tail
// byte, in address order. A returned fault means every earlier word
// landed. Runs of aligned words go to the cache as store runs
// (storeRun); a word a run cannot take, and every word of an unaligned
// b, goes through userStore.
func (n *Node) UserWriteBytes(p *kernel.Process, va vm.VAddr, b []byte) error {
	words := len(b) &^ 3
	for i := 0; i < words; {
		k, err := n.storeRun(p, va+vm.VAddr(i), b[i:words])
		if err != nil {
			return err
		}
		if k == 0 {
			if err := n.userStore(p, va+vm.VAddr(i), binary.LittleEndian.Uint32(b[i:]), 4); err != nil {
				return err
			}
			k = 1
		}
		i += 4 * k
	}
	for i := words; i < len(b); i++ {
		if err := n.userStore(p, va+vm.VAddr(i), uint32(b[i]), 1); err != nil {
			return err
		}
	}
	return nil
}

// storeRun stores the longest run of b's leading words that
// cache.StoreRun commits without an engine event, then runs the last
// word's latency, and returns the number of words stored. 0 leaves the
// first word to userStore. Like userStore it first waits out an
// Outgoing-FIFO stall; nothing changes that while the run lasts, since
// no event fires inside it, and nothing touches the page table either,
// so one translation serves the whole run.
func (n *Node) storeRun(p *kernel.Process, va vm.VAddr, b []byte) (int, error) {
	n.awaitOutFIFO()
	tr, f := n.Box.Translate(p.AS, va, true)
	if f != nil {
		return 0, f
	}
	prev := n.enter()
	k, lat := n.Cache.StoreRun(tr.PA, b, tr.WriteThrough)
	n.Eng.EnterDomain(prev)
	if k > 0 {
		n.m.RunFor(lat)
	}
	return k, nil
}

// UserReadBytes loads len(out) bytes from p's virtual memory with the
// effect of len(out) one-byte loads in address order. It translates
// once per page and reads each page's chunk line by line
// (cache.ReadBytes). That is exact because no event fires inside it and
// nothing it calls touches the page table, so each page's translation
// holds for all of its bytes.
func (n *Node) UserReadBytes(p *kernel.Process, va vm.VAddr, out []byte) error {
	if len(out) == 0 {
		return nil
	}
	tr, f := n.Box.Translate(p.AS, va, false)
	if f != nil {
		return f
	}
	prev := n.enter()
	defer n.Eng.EnterDomain(prev)
	for {
		k := min(len(out), phys.PageSize-int(va.Offset()))
		n.Cache.ReadBytes(tr.PA, out[:k])
		va, out = va+vm.VAddr(k), out[k:]
		if len(out) == 0 {
			return nil
		}
		if tr, f = n.Box.Translate(p.AS, va, false); f != nil {
			return f
		}
	}
}
