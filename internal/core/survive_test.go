package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// surviveCfg is the canonical Survivable fault plan used across the
// crash-survival tests: short retry budget and ack timeout so detection
// latency stays small relative to the workload, heartbeat armed so even
// idle nodes notice the dead peer.
func surviveCfg(w, h, crashes int) Config {
	cfg := ConfigFor(w, h, nic.GenXpress)
	cfg.Metrics = true
	cfg.Faults = fault.Config{
		Seed: 1729, Reliable: true, Survivable: true,
		Heartbeat:   200 * sim.Microsecond,
		RetryBudget: 6, AckTimeout: 10 * sim.Microsecond,
		Nodes: CrashPlan(w*h, crashes, 450*sim.Microsecond, 120*sim.Microsecond),
	}
	return cfg
}

// The headline claim: crash 2 of 16 nodes mid-workload with Survivable
// armed and the run completes with no machine check, every
// survivor→survivor flow delivers and verifies in full, and the dead
// peers' mappings are quarantined on the survivors.
func TestCrashSurvivalSoak(t *testing.T) {
	// 30 rounds keep the store phase running well past both crash
	// instants, so the workload itself (not just the heartbeat) trips
	// the failure detector and post-detection stores exercise the
	// emit-drop path.
	p := MeasureAvailability(New(surviveCfg(4, 4, 2)), 30, 64)
	if p.Err != "" {
		t.Fatalf("survivable 2-crash run failed: %s", p.Err)
	}
	// Each victim kills exactly two ring flows (the one it sends, the
	// one it receives); everything else must be perfect.
	if want := p.Flows - 4; p.GoodFlows != want {
		t.Fatalf("good flows = %d, want %d of %d", p.GoodFlows, want, p.Flows)
	}
	if p.BadWords != 0 {
		t.Fatalf("survivor flows lost %d words", p.BadWords)
	}
	if want := uint64(p.GoodFlows * 64); p.GoodWords != want {
		t.Fatalf("verified %d words, want %d", p.GoodWords, want)
	}
	if p.PeerDowns == 0 || p.MapsTorn < 4 {
		t.Fatalf("teardown accounting: %d peer-downs, %d maps torn (want >0, >=4)", p.PeerDowns, p.MapsTorn)
	}
}

// Reset must replay the identical crash: peer-down membership, the
// quarantine teardown, and the heartbeat schedule all rewind.
func TestCrashSurvivalResetMatchesFresh(t *testing.T) {
	cfg := surviveCfg(2, 2, 1)
	fresh := MeasureAvailability(New(cfg), 6, 32)

	m := New(cfg)
	MeasureAvailability(m, 3, 16) // dirty the membership view and teardown state
	m.Reset()
	reused := MeasureAvailability(m, 6, 32)
	if fresh != reused {
		t.Fatalf("survivable run after Reset diverged:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// A set-up the fault plan stops is a failed point, not a panic: at 100%
// loss the first ring flow's map exhausts its retry budget before any
// write round, and the machine check comes back in Err.
func TestAvailabilitySetupFailureIsErr(t *testing.T) {
	p := MeasureAvailability(New(faultyCfg(1_000_000)), 6, 64)
	if !strings.Contains(p.Err, "flow 0 map") || !strings.Contains(p.Err, fault.CheckRetryBudget.String()) {
		t.Fatalf("100%% loss: Err = %q, want flow 0's map retry-budget machine check", p.Err)
	}
}

// A ring record must never end at the page's last byte, or the next wrap
// marker lands in the following physical frame. Crashes 100 ms out keep
// 2x2 heartbeat traffic lapping every ring through the set-up settle;
// before records left the page's last 8 bytes for the marker, node 2
// read a corrupt record from node 1 at 50 ms.
func TestAvailabilityRingLapsCleanly(t *testing.T) {
	cfg := surviveCfg(2, 2, 0)
	cfg.Faults.Nodes = CrashPlan(cfg.NodeCount(), 2, 100*sim.Millisecond, sim.Microsecond)
	if p := MeasureAvailability(New(cfg), 1, 4); p.Err != "" {
		t.Fatalf("ring laps failed the run: %s", p.Err)
	}
}

// The Survivable flag is the whole difference between a crashed run and
// a degraded one, pinned differentially on the identical crash plan:
// off, the deliberate-update stream into the dying node burns its retry
// budget and dies with a retry-budget machine check (the pre-existing
// semantics); on, the same exhaustion declares the peer dead instead,
// the retained payloads are released, further DMA output is suppressed
// at emit, and the run completes without a failure.
func TestSurvivableOffStillMachineChecks(t *testing.T) {
	plan := func(survivable bool) Config {
		cfg := ConfigFor(2, 1, nic.GenXpress)
		cfg.Faults = fault.Config{
			Seed: 1729, Reliable: true, Survivable: survivable,
			RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
			Nodes: [2]fault.NodeFault{{Node: 1, Kind: fault.NodeCrash, At: 200 * sim.Microsecond}},
		}
		return cfg
	}
	off := MeasureFaultyTransfer(New(plan(false)), 0, 1, 1024, 512*1024)
	if off.Err == "" {
		t.Fatal("crash with Survivable off did not raise a machine check")
	}
	if !strings.Contains(off.Err, fault.CheckRetryBudget.String()) {
		t.Fatalf("failure %q is not a retry-budget machine check", off.Err)
	}

	onCfg := plan(true)
	m := New(onCfg)
	on := MeasureFaultyTransfer(m, 0, 1, 1024, 512*1024)
	if on.Err != "" {
		t.Fatalf("the same crash with Survivable on still failed: %s", on.Err)
	}
	if !m.Node(0).K.PeerIsDown(1) {
		t.Fatal("survivable sender never declared the dead receiver")
	}
	if got := m.Node(0).NIC.Stats().PeerDowns; got != 1 {
		t.Fatalf("sender declared %d peers down, want 1", got)
	}
	if on.Retransmits == 0 {
		t.Fatal("the budget was never exercised before the declaration")
	}
	if on.GoodBytes >= 512*1024 {
		t.Fatal("stream into a mid-run crash cannot deliver in full")
	}
}

// Arming Survivable without any crash must change nothing: a lossy
// transfer reports a bit-identical FaultPoint with the flag on and off.
// (The flag only redirects the retry-budget-exhausted branch; until a
// peer actually dies the two modes run the same instruction stream.)
func TestSurvivableZeroCrashBitIdentical(t *testing.T) {
	off := faultyCfg(10_000)
	on := off
	on.Faults.Survivable = true
	a := MeasureFaultyTransfer(New(off), 0, 1, 1024, 64*1024)
	b := MeasureFaultyTransfer(New(on), 0, 1, 1024, 64*1024)
	if a != b {
		t.Fatalf("Survivable flag perturbed a crash-free run:\noff: %+v\non:  %+v", a, b)
	}
}

// Regression for the latent DestroyProcess hang: destroying a process
// whose pages are mapped out to a node that crashed exercises both
// teardown paths — the async one (the unmap-in request burns its retry
// budget, the failure detector fires, and the pending RPC resolves with
// ErrPeerDown mid-flight) and the sync one (a later destroy against the
// already-quarantined peer fast-fails before the request ever leaves).
// Both futures must resolve; before the outstanding-count seal the sync
// path reaped the process mid-loop and the async one hung forever.
func TestDestroyProcessSurvivesPeerCrash(t *testing.T) {
	cfg := ConfigFor(2, 1, nic.GenXpress)
	cfg.Faults = fault.Config{
		Seed: 1, Reliable: true, Survivable: true,
		RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
		Nodes: [2]fault.NodeFault{{Node: 1, Kind: fault.NodeCrash, At: 100 * sim.Microsecond}},
	}
	m := New(cfg)
	src, dst := m.Node(0), m.Node(1)
	pd := dst.K.CreateProcess()
	recvVA, err := pd.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*kernel.Process, 2)
	for i := range procs {
		procs[i] = src.K.CreateProcess()
		sendVA, err := procs[i].AllocPages(1)
		if err != nil {
			t.Fatal(err)
		}
		m.MustMap(procs[i], sendVA, phys.PageSize, dst.ID, pd.PID, recvVA+vm.VAddr(i*phys.PageSize), nipt.SingleWriteAU)
	}
	// Let the crash fire with nothing in flight: node 1 is dead but node
	// 0 has not detected it.
	if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
		t.Fatalf("idle run to the crash instant failed: %v", err)
	}
	if src.K.PeerIsDown(dst.ID) {
		t.Fatal("precondition: node 1 must not be detected yet")
	}

	// Async path: the unmap-in request to the dead node times out, the
	// detector fires, and the destroy future resolves cleanly.
	if err := m.Await(src.K.DestroyProcess(procs[0])); err != nil {
		t.Fatalf("destroy across a crashing peer: %v", err)
	}
	if !src.K.PeerIsDown(dst.ID) {
		t.Fatal("destroy's dead unmap-in did not trip the failure detector")
	}

	// Sync path: the peer is already quarantined, the request fast-fails
	// synchronously, and the seal keeps the reap off the fast path.
	if err := m.Await(src.K.DestroyProcess(procs[1])); err != nil {
		t.Fatalf("destroy against a quarantined peer: %v", err)
	}
	if err := m.Failed(); err != nil {
		t.Fatalf("survivable destroy raised a machine check: %v", err)
	}
}

// Mapping-consistency shootdowns interleaved with a crash: an
// invalidate round is in flight to an importer that dies before
// acknowledging. The eviction future must still resolve (the dead
// peer's ack is implicit — its NIPT died with it), the surviving
// importer must have served its shootdown, and the survivors' page
// tables must converge: a post-eviction store from the survivor
// re-establishes against the NEW frame and lands.
func TestShootdownCrashConvergence(t *testing.T) {
	cfg := ConfigFor(2, 2, nic.GenXpress)
	cfg.Kernel.Policy = kernel.InvalidateProtocol
	cfg.Faults = fault.Config{
		Seed: 1, Reliable: true, Survivable: true,
		RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
		Nodes: [2]fault.NodeFault{{Node: 1, Kind: fault.NodeCrash, At: 100 * sim.Microsecond}},
	}
	m := New(cfg)
	rcv, snd := m.Node(3), m.Node(0)
	pr := rcv.K.CreateProcess()
	recvVA, err := pr.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	// Two importers map into the same receive page; node 1 will crash.
	senders := make([]*kernel.Process, 2)
	sendVAs := make([]vm.VAddr, 2)
	for i := 0; i < 2; i++ {
		node := m.Node(i)
		senders[i] = node.K.CreateProcess()
		sendVA, err := senders[i].AllocPages(1)
		if err != nil {
			t.Fatal(err)
		}
		sendVAs[i] = sendVA
		m.MustMap(senders[i], sendVA, phys.PageSize, rcv.ID, pr.PID, recvVA, nipt.SingleWriteAU)
	}
	stack, err := senders[0].AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
		t.Fatalf("run to the crash instant: %v", err)
	}

	// Evict: the shootdown fans out to nodes 0 and 1; node 1 is dead and
	// never acks.
	if err := m.Await(rcv.K.EvictPage(pr, recvVA.Page())); err != nil {
		t.Fatalf("eviction across a crashed importer: %v", err)
	}
	if !rcv.K.PeerIsDown(1) {
		t.Fatal("unacknowledged shootdown did not trip the failure detector")
	}
	if got := snd.K.Stats().InvalidatesServed; got != 1 {
		t.Fatalf("surviving importer served %d invalidations, want 1", got)
	}
	if pte, ok := senders[0].AS.Lookup(sendVAs[0].Page()); !ok || pte.Writable {
		t.Fatal("survivor's page still writable after the shootdown")
	}

	// Convergence: the survivor stores through the ISA — the write
	// faults, the kernel re-establishes the mapping against the
	// replacement frame (the destination is alive), and the word lands.
	prog := isa.MustAssemble("poke", `
poke:
	mov	dword [SBUF], 0x7ee57a11
	hlt
`, map[string]int64{"SBUF": int64(sendVAs[0])})
	snd.K.BindProcess(senders[0])
	snd.CPU.Load(prog)
	snd.CPU.R = [8]uint32{}
	snd.CPU.R[isa.ESP] = uint32(stack) + phys.PageSize
	if err := snd.CPU.Start("poke"); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
		t.Fatalf("re-establish run: %v", err)
	}
	if err := snd.CPU.Err(); err != nil {
		t.Fatalf("survivor cpu aborted: %v", err)
	}
	if got := snd.K.Stats().ReestablishFaults; got != 1 {
		t.Fatalf("expected 1 re-establish fault, got %d", got)
	}
	if v, _ := rcv.UserRead32(pr, recvVA); v != 0x7ee57a11 {
		t.Fatalf("survivor store did not land after convergence: got %08x", v)
	}
}

// The degraded half of re-establishment: when the write-protection
// fault's destination is itself the dead node, the kernel cannot bring
// the mapping back. It must drop the record and fall through to plain
// local writability — the store retries, lands in local memory, and
// propagates nowhere — instead of panicking or hanging the CPU.
func TestReestablishDegradesWhenPeerDead(t *testing.T) {
	cfg := ConfigFor(2, 1, nic.GenXpress)
	cfg.Faults = fault.Config{
		Seed: 1, Reliable: true, Survivable: true,
		RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
		Nodes: [2]fault.NodeFault{{Node: 1, Kind: fault.NodeCrash, At: 100 * sim.Microsecond}},
	}
	m := New(cfg)
	snd, dst := m.Node(0), m.Node(1)
	ps := snd.K.CreateProcess()
	pd := dst.K.CreateProcess()
	sendVA, err := ps.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	recvVA, err := pd.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := ps.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	m.MustMap(ps, sendVA, phys.PageSize, dst.ID, pd.PID, recvVA, nipt.SingleWriteAU)
	if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
		t.Fatal(err)
	}

	// One heartbeat probe after the crash: the ping rides the reliable
	// kernel ring, burns the retry budget, the detector declares node 1
	// dead, and the teardown write-protects the exported page. (A plain
	// AU store would not do it — automatic update is detection-tagged,
	// not retained.)
	snd.K.Heartbeat()
	if err := m.Settle("detection"); err != nil {
		t.Fatalf("settle through detection: %v", err)
	}
	if !snd.K.PeerIsDown(dst.ID) {
		t.Fatal("unacknowledged heartbeat never tripped the detector")
	}
	if pte, ok := ps.AS.Lookup(sendVA.Page()); !ok || pte.Writable {
		t.Fatal("teardown left the exported page writable")
	}

	// The next ISA store faults; re-establishment fast-fails against the
	// quarantined peer and the page degrades to local-only writability.
	prog := isa.MustAssemble("poke", `
poke:
	mov	dword [SBUF], 0xdead5afe
	hlt
`, map[string]int64{"SBUF": int64(sendVA)})
	snd.K.BindProcess(ps)
	snd.CPU.Load(prog)
	snd.CPU.R = [8]uint32{}
	snd.CPU.R[isa.ESP] = uint32(stack) + phys.PageSize
	if err := snd.CPU.Start("poke"); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if err := snd.CPU.Err(); err != nil {
		t.Fatalf("cpu aborted in degraded mode: %v", err)
	}
	if !snd.CPU.Halted() {
		t.Fatal("cpu never completed the degraded store")
	}
	if v, _ := snd.UserRead32(ps, sendVA); v != 0xdead5afe {
		t.Fatalf("degraded store lost locally: got %08x", v)
	}
	if pte, ok := ps.AS.Lookup(sendVA.Page()); !ok || !pte.Writable {
		t.Fatal("degraded page did not regain local writability")
	}
}

// The heartbeat closes the idle-node detection gap: with no data
// traffic at all, a crashed peer is still declared dead on every
// survivor within a bounded number of probe periods, and the machine
// then quiesces (the heartbeat stops rescheduling once every planned
// victim is detected).
func TestHeartbeatDetectsIdleCrash(t *testing.T) {
	cfg := ConfigFor(2, 2, nic.GenXpress)
	cfg.Faults = fault.Config{
		Seed: 1, Reliable: true, Survivable: true,
		Heartbeat:   100 * sim.Microsecond,
		RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
		Nodes: [2]fault.NodeFault{{Node: 2, Kind: fault.NodeCrash, At: 50 * sim.Microsecond}},
	}
	m := New(cfg)
	if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
		t.Fatalf("idle heartbeat run failed: %v", err)
	}
	for _, id := range []int{0, 1, 3} {
		if !m.Node(id).K.PeerIsDown(2) {
			t.Fatalf("survivor %d never detected the idle crash", id)
		}
		if m.Node(id).K.Stats().PingsSent == 0 {
			t.Fatalf("survivor %d sent no heartbeat probes", id)
		}
	}
	if m.Node(2).K.Stats().PeerDowns != 0 {
		t.Fatal("the dead node declared peers down")
	}
}

// A request issued by a node that then crashes can never resolve: its
// kernel will not see the reply. Await must report that as
// fault.ErrPeerDown — for a Map in flight at the crash and for every
// later Map from the dead node — instead of panicking when the event
// queue runs dry.
func TestAwaitOnCrashedIssuer(t *testing.T) {
	cfg := ConfigFor(2, 2, nic.GenEISAPrototype)
	cfg.Faults = fault.Config{
		Seed: 1, Reliable: true, Survivable: true,
		Heartbeat:   200 * sim.Microsecond,
		RetryBudget: 6, AckTimeout: 10 * sim.Microsecond,
		Nodes: [2]fault.NodeFault{{Node: 2, Kind: fault.NodeCrash, At: 100 * sim.Microsecond}},
	}
	m := New(cfg)
	src, dst := m.Node(2), m.Node(0)
	ps, pd := src.K.CreateProcess(), dst.K.CreateProcess()
	m.RunFor(90*sim.Microsecond - m.Now())
	for i := 0; i < 3; i++ {
		sendVA, err := ps.AllocPages(1)
		if err != nil {
			t.Fatal(err)
		}
		recvVA, err := pd.AllocPages(1)
		if err != nil {
			t.Fatal(err)
		}
		issued := m.Now()
		_, fut := src.K.Map(ps, sendVA, phys.PageSize, dst.ID, pd.PID, recvVA, nipt.SingleWriteAU)
		if err := m.Await(fut); !errors.Is(err, fault.ErrPeerDown) {
			t.Fatalf("map %d issued at %v by the crashing node: got %v, want fault.ErrPeerDown", i, issued, err)
		}
		if i == 0 && issued >= 100*sim.Microsecond {
			t.Fatalf("precondition: the first map must be in flight at the crash (issued %v)", issued)
		}
	}
	if !dst.K.PeerIsDown(src.ID) {
		t.Fatal("the survivors never declared the crashed node down")
	}
	if err := m.Failed(); err != nil {
		t.Fatalf("survivable crash raised a machine check: %v", err)
	}
}
