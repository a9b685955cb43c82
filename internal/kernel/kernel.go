// Package kernel implements the operating system half of the SHRIMP
// design: processes and per-process virtual memory, the map() system
// call that separates protection from data movement (§2), command-page
// grants (§4.2), the paging policies for mapping consistency (§4.4),
// and a multiprogramming scheduler.
//
// Kernels on different nodes communicate only through kernel message
// rings — pages at fixed frames, wired up with ordinary SHRIMP
// automatic-update mappings and interrupt-on-arrival when a pair of
// kernels first talks, so the OS control plane dogfoods the network
// interface it manages.
package kernel

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Config holds kernel policy and cost parameters.
type Config struct {
	// Policy selects how §4.4 mapping consistency is maintained.
	Policy PagingPolicy
	// PageInTime models the cost of restoring an evicted page (swap is
	// simulated in-memory, so this is the whole charge).
	PageInTime sim.Time
	// MapSetupTime models the local kernel work of one map() call
	// (validation, page-table edits) beyond the message round trip.
	MapSetupTime sim.Time
}

// PagingPolicy is the §4.4 consistency policy for mapped-in pages.
type PagingPolicy uint8

const (
	// PinPages pins every page with incoming mappings; eviction of such
	// a page is refused. "This solution is satisfactory if there are not
	// too many communication mappings."
	PinPages PagingPolicy = iota
	// InvalidateProtocol borrows the TLB-shootdown solution: remote NIPT
	// entries referring to the page are invalidated (their source pages
	// marked read-only) and acknowledged before the page is replaced;
	// writers re-establish lazily via page faults.
	InvalidateProtocol
)

func (p PagingPolicy) String() string {
	if p == PinPages {
		return "pin"
	}
	return "invalidate"
}

// DefaultConfig returns the default kernel parameters.
func DefaultConfig() Config {
	return Config{
		Policy:       PinPages,
		PageInTime:   200 * sim.Microsecond,
		MapSetupTime: 20 * sim.Microsecond,
	}
}

// Stats aggregates kernel activity.
type Stats struct {
	Maps              uint64
	Unmaps            uint64
	MapInRequests     uint64 // served for remote kernels
	Evictions         uint64
	EvictionsRefused  uint64 // pinned pages
	PageIns           uint64
	InvalidatesSent   uint64
	InvalidatesServed uint64
	ReestablishFaults uint64
	RingRecordsSent   uint64
	RingRecordsRcvd   uint64
	ContextSwitches   uint64
	PeerDowns         uint64 // peers this kernel has declared dead
	PeerMapsTorn      uint64 // mapping records quarantined by peer-down teardown
	PingsSent         uint64 // heartbeat probes issued (Survivable mode)
}

// Kernel is one node's operating system.
type Kernel struct {
	eng   *sim.Engine
	dom   sim.Domain // the node's event domain; tags harness-entered syscalls
	cfg   Config
	id    packet.NodeID
	nodes int // machine's node count: fixes the ring layout (ring.go)
	// nipts holds every node's NIPT, by node id: installRing writes a
	// ring pair's entries on both of its nodes.
	nipts []*nipt.Table
	mem   *phys.Memory
	xbus  *bus.Xpress
	nic   *nic.NIC
	cpu   *isa.CPU
	box   *MemBox

	procs   map[int]*Process
	nextPID int
	// The frame allocator: frames [fresh, mem.Pages()) have never been
	// handed out, and free stacks returned frames, reused last in first
	// out before any fresh one.
	free  []phys.PageNum
	fresh phys.PageNum
	swap  map[swapKey][]byte

	// peers holds ring state for the nodes this kernel has sent to or
	// heard from, built on first use (peerOf).
	peers   map[packet.NodeID]*peer
	pending map[uint32]*Future
	// pendingDst records each pending RPC's destination so a peer-down
	// declaration can resolve exactly the futures that will never be
	// acknowledged (HandlePeerDown).
	pendingDst map[uint32]packet.NodeID
	nextReq    uint32
	// ringCRC selects the fault-mode record layout (see ring.go); set
	// once at boot, it survives Reset like the rest of the config.
	ringCRC bool
	// survivable mirrors fault.Config.Survivable; down is this kernel's
	// membership view — peers the local failure detector has declared
	// dead (see peerdown.go).
	survivable bool
	down       map[packet.NodeID]*fault.PeerDown

	// imports: which remote nodes map INTO each local frame (so the
	// §4.4 invalidation protocol knows whom to shoot down).
	imports map[phys.PageNum]map[packet.NodeID]int
	// exports: local outgoing mapping records, for invalidation lookup
	// and fault-driven re-establishment.
	exports map[exportKey][]*OutMapping

	// OnUserRecvIRQ, when set, receives §4.2 interrupt-on-arrival events
	// for user pages (message libraries use it to dispatch receive
	// interrupts).
	OnUserRecvIRQ func(page phys.PageNum)
	// OnPeerDown, when set, fires after HandlePeerDown finishes tearing
	// down a dead peer's mappings (core uses it for recorder marks).
	OnPeerDown func(pd *fault.PeerDown)
	// Obs, when set, is this node's metrics scope for kernel page
	// operations (nil-safe).
	Obs *obs.NodeScope

	sched scheduler
	stats Stats
}

type swapKey struct {
	pid int
	vpn vm.VPN
}

type exportKey struct {
	node packet.NodeID
	page phys.PageNum
}

// New builds node id's kernel over the node's hardware. nipts holds
// every node's NIPT by node id, n's own among them; its length, the
// machine's node count, fixes the ring layout. The kernel reads the
// other nodes' tables only when it installs a ring (installRing), so
// the caller may fill them in after New. cpu may be nil for pure-Go
// harness tests. The kernel claims the NIC's interrupt line and, if a
// CPU is present, its fault handler.
func New(eng *sim.Engine, cfg Config, id packet.NodeID, nipts []*nipt.Table,
	mem *phys.Memory, xbus *bus.Xpress, n *nic.NIC, cpu *isa.CPU, box *MemBox) *Kernel {
	k := &Kernel{
		eng: eng, dom: sim.DomNode(int(id)), cfg: cfg, id: id, nodes: len(nipts), nipts: nipts,
		mem: mem, xbus: xbus, nic: n, cpu: cpu, box: box,
		procs:      make(map[int]*Process),
		nextPID:    1,
		fresh:      phys.PageNum(mem.Pages()), // no frames until Boot
		swap:       make(map[swapKey][]byte),
		peers:      make(map[packet.NodeID]*peer),
		pending:    make(map[uint32]*Future),
		pendingDst: make(map[uint32]packet.NodeID),
		down:       make(map[packet.NodeID]*fault.PeerDown),
		imports:    make(map[phys.PageNum]map[packet.NodeID]int),
		exports:    make(map[exportKey][]*OutMapping),
	}
	n.OnIRQ = k.handleNICIRQ
	n.OnOutFull = k.handleOutFull
	n.OnOutDrained = k.handleOutDrained
	if cpu != nil {
		cpu.FaultHandler = k.HandleFault
	}
	return k
}

// Reset returns the kernel to its just-constructed state: no processes,
// no peer ring state, no pending RPCs, no mapping records, scheduler
// idle, zeroed statistics. Maps are cleared in place so their buckets
// are reused. The machine constructor's boot step (Boot) must be re-run
// afterwards, exactly as after New.
func (k *Kernel) Reset() {
	clear(k.procs)
	k.nextPID = 1
	k.free, k.fresh = k.free[:0], phys.PageNum(k.mem.Pages())
	clear(k.swap)
	clear(k.peers)
	clear(k.pending)
	clear(k.pendingDst)
	clear(k.down)
	k.nextReq = 0
	clear(k.imports)
	clear(k.exports)
	k.OnUserRecvIRQ = nil
	k.sched = scheduler{}
	k.stats = Stats{}
	if k.box != nil {
		k.box.CurrentAS = nil
		k.box.InvalidateTLB()
	}
}

// ID returns the node id.
func (k *Kernel) ID() packet.NodeID { return k.id }

// enter tags the node's domain at a harness syscall entry (Map,
// GrantCommandPages, StartScheduler); the caller restores the returned
// previous domain.
func (k *Kernel) enter() sim.Domain { return k.eng.EnterDomain(k.dom) }

// Stats returns a snapshot of kernel statistics.
func (k *Kernel) Stats() Stats { return k.stats }

// NIC returns the node's network interface.
func (k *Kernel) NIC() *nic.NIC { return k.nic }

// CPU returns the node's processor (may be nil in harness tests).
func (k *Kernel) CPU() *isa.CPU { return k.cpu }

// SetFreePages replaces the physical page allocator's free frames, which
// Boot sets to every frame above the ring pages, with pages alone. The
// allocator takes them from the end of the slice.
func (k *Kernel) SetFreePages(pages []phys.PageNum) {
	k.free, k.fresh = pages, phys.PageNum(k.mem.Pages())
}

// FreePageCount returns the number of unallocated physical pages.
func (k *Kernel) FreePageCount() int { return len(k.free) + k.mem.Pages() - int(k.fresh) }

// allocFrame hands out the most recently freed frame, or else the lowest
// frame never handed out, so frames come out ascending until some are
// returned.
func (k *Kernel) allocFrame() (phys.PageNum, error) {
	var f phys.PageNum
	if n := len(k.free); n > 0 {
		f, k.free = k.free[n-1], k.free[:n-1]
	} else if int(k.fresh) < k.mem.Pages() {
		f = k.fresh
		k.fresh++
	} else {
		return 0, fmt.Errorf("kernel%d: out of physical pages", k.id)
	}
	k.mem.ZeroPage(f)
	return f, nil
}

func (k *Kernel) freeFrame(f phys.PageNum) { k.free = append(k.free, f) }

// Process is one schedulable address space.
type Process struct {
	PID    int
	AS     *vm.AddressSpace
	kernel *Kernel

	// Staged program and saved context for scheduling.
	regs    [8]uint32
	state   isa.State
	prog    *isa.Program
	entry   string
	started bool
	// outgoing mapping records by local virtual page.
	outMaps map[vm.VPN][]*OutMapping
	nextVA  vm.VAddr
}

// CreateProcess makes a new process with an empty address space.
func (k *Kernel) CreateProcess() *Process {
	p := &Process{
		PID:     k.nextPID,
		AS:      vm.NewAddressSpace(k.mem.CmdBase()),
		kernel:  k,
		outMaps: make(map[vm.VPN][]*OutMapping),
		nextVA:  0x1000_0000,
	}
	k.nextPID++
	k.procs[p.PID] = p
	return p
}

// Process returns the process with the given pid, if it exists.
func (k *Kernel) Process(pid int) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// AllocPages maps n fresh, zeroed, writable write-back pages into the
// process at the next free virtual range and returns the base address.
func (p *Process) AllocPages(n int) (vm.VAddr, error) {
	base := p.nextVA
	for i := 0; i < n; i++ {
		f, err := p.kernel.allocFrame()
		if err != nil {
			return 0, err
		}
		p.AS.Map(base.Page()+vm.VPN(i), vm.PTE{
			Frame: f, Present: true, Writable: true, WriteThrough: false,
		})
	}
	p.nextVA += vm.VAddr(n * phys.PageSize)
	return base, nil
}

// AllocPagesAligned is AllocPages with the base virtual address aligned
// to alignPages pages (a power of two). Routines that toggle between
// buffers by flipping an address bit need aligned bases.
func (p *Process) AllocPagesAligned(n, alignPages int) (vm.VAddr, error) {
	alignBytes := vm.VAddr(alignPages * phys.PageSize)
	if rem := p.nextVA % alignBytes; rem != 0 {
		p.nextVA += alignBytes - rem
	}
	return p.AllocPages(n)
}

// Kernel returns the kernel that owns this process.
func (p *Process) Kernel() *Kernel { return p.kernel }

// FrameOf exposes the physical frame backing a virtual page (testing
// and diagnostics).
func (p *Process) FrameOf(va vm.VAddr) (phys.PageNum, bool) {
	return p.AS.FrameOf(va.Page())
}

// MemBox is the node's MMU+cache port: it implements isa.MemPort by
// translating through the current process's page table and accessing
// memory through the cache. The kernel swaps CurrentAS on a context
// switch; the network interface needs no action (Figure 3).
//
// Translation goes through a small direct-mapped micro-TLB, shared by
// the ISA CPU and by harness accesses (core.Node's user accessors),
// which name their address space explicitly. The TLB is purely a
// host-side accelerator — Translate carries no simulated cost, so
// caching it must never change behavior. Each entry is tagged with the
// owning address space and that table's generation counter
// (vm.AddressSpace.Gen), which advances on every Map, Unmap, and
// SetWritable: a remap or protection change leaves stale entries
// unmatchable by construction, and a context switch misses via the
// address-space tag.
type MemBox struct {
	Cache     *cache.Cache
	CurrentAS *vm.AddressSpace

	tlb [tlbSlots]tlbEntry
}

// tlbSlots is the micro-TLB size (direct-mapped, power of two).
const tlbSlots = 64

type tlbEntry struct {
	as       *vm.AddressSpace
	gen      uint64
	vpn      vm.VPN
	base     phys.PAddr // physical base of the page (command offset folded in)
	wt       bool       // page is write-through (or command)
	cmd      bool       // page is a command page
	writable bool
}

// InvalidateTLB drops every cached translation. Generation tags already
// make mutation-driven invalidation automatic; the kernel calls this on
// Reset so no entry outlives its address space object.
func (b *MemBox) InvalidateTLB() { b.tlb = [tlbSlots]tlbEntry{} }

// Translate resolves a in as for a read or write access, exactly as
// as.Translate would, through the micro-TLB.
func (b *MemBox) Translate(as *vm.AddressSpace, a vm.VAddr, write bool) (vm.Translation, *vm.Fault) {
	if e := b.hit(as, a, write); e != nil {
		return vm.Translation{PA: e.base + phys.PAddr(a.Offset()), WriteThrough: e.wt, Command: e.cmd}, nil
	}
	return b.fill(as, a, write)
}

// hit returns the TLB entry that translates a in as, or nil on a miss.
// A write hit requires the writable bit: entries filled by loads on
// read-only pages take the slow path so protection faults (the §4.4
// invalidation protocol depends on them) still surface. hit is small
// enough to inline, so the ISA load and store paths pay no call for it.
func (b *MemBox) hit(as *vm.AddressSpace, a vm.VAddr, write bool) *tlbEntry {
	e := &b.tlb[uint32(a.Page())&(tlbSlots-1)]
	if e.as == as && e.vpn == a.Page() && e.gen == as.Gen() && (e.writable || !write) {
		return e
	}
	return nil
}

// fill is the miss path: walk the page table and, on success, cache
// the translation.
func (b *MemBox) fill(as *vm.AddressSpace, a vm.VAddr, write bool) (vm.Translation, *vm.Fault) {
	tr, f := as.Translate(a, write)
	if f != nil {
		return tr, f
	}
	pte, _ := as.Lookup(a.Page())
	b.tlb[uint32(a.Page())&(tlbSlots-1)] = tlbEntry{
		as:       as,
		gen:      as.Gen(),
		vpn:      a.Page(),
		base:     tr.PA - phys.PAddr(a.Offset()),
		wt:       tr.WriteThrough,
		cmd:      tr.Command,
		writable: pte.Writable,
	}
	return tr, nil
}

// Load implements isa.MemPort.
func (b *MemBox) Load(a vm.VAddr, size int) (uint32, sim.Time, *vm.Fault) {
	if e := b.hit(b.CurrentAS, a, false); e != nil && inPage(a, size) {
		v, t := b.Cache.Load(e.base+phys.PAddr(a.Offset()), size)
		return v, t, nil
	}
	return b.LoadAS(b.CurrentAS, a, size)
}

// Store implements isa.MemPort.
func (b *MemBox) Store(a vm.VAddr, v uint32, size int) (sim.Time, *vm.Fault) {
	if e := b.hit(b.CurrentAS, a, true); e != nil && inPage(a, size) {
		return b.Cache.Store(e.base+phys.PAddr(a.Offset()), v, size, e.wt), nil
	}
	return b.StoreAS(b.CurrentAS, a, v, size)
}

// inPage reports whether a size-byte access at a stays within a's page.
func inPage(a vm.VAddr, size int) bool { return int(a.Offset())+size <= phys.PageSize }

// LoadAS loads size (1, 2 or 4) bytes at a in as through the micro-TLB
// and the cache: the harness accessors' load path, and the ISA port's
// whenever its inlined TLB hit does not apply. An access that crosses
// into the next virtual page
// translates both pages before it touches either, so a fault on either
// page returns with no byte read; it then loads each page's part, and
// its latency is the sum of the two, as cache.Load splits an access
// that straddles a line.
func (b *MemBox) LoadAS(as *vm.AddressSpace, a vm.VAddr, size int) (uint32, sim.Time, *vm.Fault) {
	lo, hi, first, f := b.translate2(as, a, size, false)
	if f != nil {
		return 0, 0, f
	}
	if first == size {
		v, t := b.Cache.Load(lo.PA, size)
		return v, t, nil
	}
	v1, t1 := b.Cache.Load(lo.PA, first)
	v2, t2 := b.Cache.Load(hi.PA, size-first)
	return v1 | v2<<(8*uint(first)), t1 + t2, nil
}

// StoreAS is the store counterpart of LoadAS: a store that crosses into
// the next virtual page writes nothing unless both pages translate,
// then stores each page's part under that page's caching policy.
func (b *MemBox) StoreAS(as *vm.AddressSpace, a vm.VAddr, v uint32, size int) (sim.Time, *vm.Fault) {
	lo, hi, first, f := b.translate2(as, a, size, true)
	if f != nil {
		return 0, f
	}
	if first == size {
		return b.Cache.Store(lo.PA, v, size, lo.WriteThrough), nil
	}
	t1 := b.Cache.Store(lo.PA, v, first, lo.WriteThrough)
	t2 := b.Cache.Store(hi.PA, v>>(8*uint(first)), size-first, hi.WriteThrough)
	return t1 + t2, nil
}

// translate2 translates the size-byte access at a: lo covers its first
// first bytes, and hi, when first < size, the rest, which lie at the
// start of the next virtual page.
func (b *MemBox) translate2(as *vm.AddressSpace, a vm.VAddr, size int, write bool) (lo, hi vm.Translation, first int, f *vm.Fault) {
	if lo, f = b.Translate(as, a, write); f != nil {
		return lo, hi, 0, f
	}
	first = min(size, phys.PageSize-int(a.Offset()))
	if first < size {
		hi, f = b.Translate(as, a+vm.VAddr(first), write)
	}
	return lo, hi, first, f
}

// CmpxchgLocked implements isa.MemPort (§4.3 command protocol).
func (b *MemBox) CmpxchgLocked(a vm.VAddr, expect, repl uint32) (uint32, bool, sim.Time, *vm.Fault) {
	tr, f := b.CurrentAS.Translate(a, true)
	if f != nil {
		return 0, false, 0, f
	}
	read, swapped, lat := b.Cache.LockedCmpxchg(tr.PA, expect, repl)
	return read, swapped, lat, nil
}

// handleOutFull freezes the CPU while the Outgoing FIFO is above its
// threshold: "the CPU is interrupted and waits until the FIFO drains."
func (k *Kernel) handleOutFull() {
	if k.cpu != nil {
		k.cpu.Freeze()
	}
}

func (k *Kernel) handleOutDrained() {
	if k.cpu != nil {
		k.cpu.Thaw()
	}
}

// busWrite32 issues a CPU-initiated bus write; kernel stores go through
// the bus so the NIC snoops them like any other store.
func (k *Kernel) busWrite32(a phys.PAddr, v uint32) {
	k.xbus.Write32(bus.InitCPU, a, v)
}

// sortedKeys returns m's keys in ascending order. Loops over a map that
// send requests or schedule events range over it instead, so that every
// run does so in the same order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}
