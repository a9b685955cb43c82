package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/vm"
)

// metricsCfg is a small machine with metrics enabled.
func metricsCfg(w, h int) Config {
	cfg := ConfigFor(w, h, nic.GenEISAPrototype)
	cfg.Metrics = true
	return cfg
}

// driveTraffic sends a few single-write stores and one blocked-write
// burst from node 0 to node 1 and drains the machine.
func driveTraffic(t *testing.T, m *Machine) {
	t.Helper()
	s := setupPair(m, 0, 1, nipt.SingleWriteAU)
	for i := 0; i < 4; i++ {
		if err := s.src.UserWrite32(s.ps, s.sendVA+vm.VAddr(i*4), 0x1000+uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsOffByDefault(t *testing.T) {
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	if m.Obs != nil {
		t.Fatal("registry attached without Config.Metrics")
	}
	driveTraffic(t, m)
	// The disabled surface stays usable: zero snapshot, empty timeline.
	if snap := m.Metrics(); len(snap.Nodes) != 0 || snap.SpansFinished != 0 {
		t.Fatalf("disabled snapshot: %+v", snap)
	}
	var b strings.Builder
	if err := m.TraceJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatal("disabled TraceJSON invalid")
	}
}

func TestMetricsRecordTheDatapath(t *testing.T) {
	m := New(metricsCfg(2, 1))
	driveTraffic(t, m)

	snap := m.Metrics()
	src, dst := snap.Nodes[0], snap.Nodes[1]
	if src.Counters["packets-out"] == 0 || src.Counters["snooped-writes"] == 0 {
		t.Fatalf("source counters: %v", src.Counters)
	}
	if dst.Counters["packets-in"] != src.Counters["packets-out"] {
		t.Fatalf("in %d != out %d", dst.Counters["packets-in"], src.Counters["packets-out"])
	}
	if src.Counters["nipt-lookups"] == 0 || src.Counters["bus-txns"] == 0 {
		t.Fatalf("component counters: %v", src.Counters)
	}
	if src.Counters["kernel-maps"] == 0 {
		t.Fatalf("kernel counters: %v", src.Counters)
	}
	// map() is a request on the destination's kernel ring and a response
	// on the source's: each lands with an IRQ.
	if src.Counters["irqs"] == 0 || dst.Counters["irqs"] == 0 {
		t.Fatalf("kernel ring IRQs: src %d dst %d", src.Counters["irqs"], dst.Counters["irqs"])
	}
	if snap.SpansFinished == 0 || snap.SpansFinished != src.Counters["packets-out"]+dst.Counters["packets-out"] {
		t.Fatalf("spans %d vs packets %d+%d", snap.SpansFinished,
			src.Counters["packets-out"], dst.Counters["packets-out"])
	}
	// Every completed span fed the source-side stage histograms.
	total := m.Obs.StageHist(obs.HistStageTotal)
	if total.Count != snap.SpansFinished || total.Mean() <= 0 {
		t.Fatalf("stage-total count=%d mean=%v", total.Count, total.Mean())
	}
	if len(snap.Links) == 0 {
		t.Fatal("no link traversals recorded")
	}
	// Spans carry consistent stage ordering.
	for _, s := range m.Obs.CompletedSpans() {
		if !(s.Start <= s.Enqueued && s.Enqueued <= s.Injected &&
			s.Injected <= s.Delivered && s.Delivered <= s.Deposited) {
			t.Fatalf("unordered span %+v", s)
		}
	}
}

// TestMetricsChangeNothing is the differential guarantee: enabling
// metrics must not change any simulated result — same latencies, same
// event counts, same final statistics.
func TestMetricsChangeNothing(t *testing.T) {
	plain := ConfigFor(4, 4, nic.GenEISAPrototype)
	instr := plain
	instr.Metrics = true

	a := MeasureStoreLatency(New(plain), 0, 15)
	b := MeasureStoreLatency(New(instr), 0, 15)
	if a != b {
		t.Fatalf("metrics changed the measurement:\n off %+v\n on  %+v", a, b)
	}

	ba := MeasureDeliberateBandwidth(New(plain), 0, 3, 4096, 64*1024)
	bb := MeasureDeliberateBandwidth(New(instr), 0, 3, 4096, 64*1024)
	if ba != bb {
		t.Fatalf("metrics changed bandwidth:\n off %+v\n on  %+v", ba, bb)
	}
}

// TestMetricsSweepParallelMatchesSequential exercises the machine-reuse
// pool with metrics enabled: parallel workers Reset and reuse machines,
// and results must stay bit-identical to the sequential path.
func TestMetricsSweepParallelMatchesSequential(t *testing.T) {
	cfg := metricsCfg(4, 4)
	seq := LatencySweep(cfg, 1)
	par := LatencySweep(cfg, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged with metrics on:\n seq %+v\n par %+v", seq, par)
	}
}

func TestMetricsResetMatchesFresh(t *testing.T) {
	cfg := metricsCfg(2, 2)
	m := New(cfg)
	fresh := m.Metrics()

	driveTraffic(t, m)
	if m.Metrics().SpansFinished == 0 {
		t.Fatal("no traffic recorded before reset")
	}
	m.Reset()
	if got := m.Metrics(); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("reset metrics differ from fresh:\n got  %+v\n want %+v", got, fresh)
	}
	// A reset machine must then record identically to a fresh one.
	driveTraffic(t, m)
	m2 := New(cfg)
	driveTraffic(t, m2)
	if a, b := m.Metrics(), m2.Metrics(); !reflect.DeepEqual(a, b) {
		t.Fatalf("reused machine metrics diverge:\n reset %+v\n fresh %+v", a, b)
	}
}

func TestTraceJSONSixteenNodes(t *testing.T) {
	m := New(metricsCfg(4, 4))
	s := setupPair(m, 0, 15, nipt.SingleWriteAU)
	for i := 0; i < 8; i++ {
		if err := s.src.UserWrite32(s.ps, s.sendVA+vm.VAddr(i*4), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := m.TraceJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !json.Valid([]byte(out)) {
		t.Fatalf("TraceJSON invalid:\n%.400s", out)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	procs := map[int]bool{}
	var stages, instants int
	for _, ev := range doc.TraceEvents {
		procs[ev.Pid] = true
		switch ev.Ph {
		case "b":
			stages++
		case "i":
			instants++
		}
	}
	if len(procs) != 16 {
		t.Fatalf("process tracks %d, want 16", len(procs))
	}
	// Spans render as async slices; instants come only from recorder
	// marks, and this machine has no recorder.
	if stages == 0 || instants != 0 {
		t.Fatalf("stages=%d instants=%d, want stages and no instants", stages, instants)
	}
}

func TestMetricsReportTables(t *testing.T) {
	m := New(metricsCfg(2, 1))
	driveTraffic(t, m)
	var b strings.Builder
	if err := m.Obs.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"counters", "packets-out", "| stage |", "stage-mesh", "spans:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	// Payload histogram saw the stores.
	if h := m.Obs.Node(1).Hist(obs.HistPayload); h.Count == 0 {
		t.Fatal("payload histogram empty")
	}
}

// TestCountersMatchStats holds the registry's per-node counters to the
// always-on component Stats, field for field, on three machine-level
// scenarios: an eviction under the invalidation protocol followed by a
// faulting store that re-establishes the mapping, a deliberate-update
// stream that fills the Outgoing FIFO, and a reliable transfer under
// drops, corruption and duplication. Each scenario must move the
// counters it names, so a counter that stops counting fails here. drops
// must equal the sum of the NIC's six drop fields, and the reliable
// transfer must drop past a sequence gap. (kernel-unmaps is left out:
// it counts more than any one Stats field, invalidation teardowns too.)
func TestCountersMatchStats(t *testing.T) {
	pairs := []struct {
		ctr  obs.Counter
		stat func(n *Node) uint64
	}{
		{obs.CtrKernelMaps, func(n *Node) uint64 { return n.K.Stats().Maps }},
		{obs.CtrKernelEvictions, func(n *Node) uint64 { return n.K.Stats().Evictions }},
		{obs.CtrKernelPageIns, func(n *Node) uint64 { return n.K.Stats().PageIns }},
		{obs.CtrIRQs, func(n *Node) uint64 { return n.NIC.Stats().RecvIRQs }},
		{obs.CtrOutStalls, func(n *Node) uint64 { return n.NIC.Stats().OutFullEvents }},
		{obs.CtrPacketsOut, func(n *Node) uint64 { return n.NIC.Stats().PacketsOut }},
		{obs.CtrPacketsIn, func(n *Node) uint64 { return n.NIC.Stats().PacketsIn }},
		{obs.CtrDMACommands, func(n *Node) uint64 { return n.NIC.Stats().DMATransfers }},
		{obs.CtrRelDups, func(n *Node) uint64 { return n.NIC.Stats().RelDupDrops }},
		{obs.CtrDrops, func(n *Node) uint64 { return n.NIC.Stats().Drops() }},
	}
	check := func(t *testing.T, m *Machine, moved ...obs.Counter) {
		t.Helper()
		for _, p := range pairs {
			for _, n := range m.Nodes {
				if got, want := m.Obs.Node(int(n.ID)).Counter(p.ctr), p.stat(n); got != want {
					t.Errorf("node %d: %s = %d, Stats say %d", n.ID, p.ctr, got, want)
				}
			}
		}
		for _, c := range moved {
			if m.Obs.Total(c) == 0 {
				t.Errorf("%s stayed at 0", c)
			}
		}
	}

	t.Run("evict-and-reestablish", func(t *testing.T) {
		cfg := metricsCfg(2, 1)
		cfg.Kernel.Policy = kernel.InvalidateProtocol
		m := New(cfg)
		s := setupPair(m, 0, 1, nipt.SingleWriteAU)
		stack, err := s.ps.AllocPages(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Await(s.dst.K.EvictPage(s.pd, s.recvVA.Page())); err != nil {
			t.Fatalf("evict: %v", err)
		}
		prog := isa.MustAssemble("poke", `
poke:
	mov	dword [SBUF], 42
	hlt
`, map[string]int64{"SBUF": int64(s.sendVA)})
		s.src.K.BindProcess(s.ps)
		s.src.CPU.Load(prog)
		s.src.CPU.R = [8]uint32{}
		s.src.CPU.R[isa.ESP] = uint32(stack) + phys.PageSize
		if err := s.src.CPU.Start("poke"); err != nil {
			t.Fatal(err)
		}
		if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.dst.UserRead32(s.pd, s.recvVA); v != 42 {
			t.Fatalf("store after re-establish = %d, want 42", v)
		}
		check(t, m, obs.CtrKernelMaps, obs.CtrKernelEvictions, obs.CtrKernelPageIns,
			obs.CtrIRQs, obs.CtrPacketsOut, obs.CtrPacketsIn)
	})

	t.Run("deliberate-bandwidth", func(t *testing.T) {
		m := New(metricsCfg(2, 1))
		MeasureDeliberateBandwidth(m, 0, 1, 4096, 64*1024)
		check(t, m, obs.CtrOutStalls, obs.CtrDMACommands, obs.CtrPacketsOut, obs.CtrPacketsIn)
	})

	t.Run("faulty-transfer", func(t *testing.T) {
		cfg := faultyCfg(60_000)
		cfg.Faults.CorruptPPM, cfg.Faults.DupPPM = 40_000, 20_000
		cfg.Metrics = true
		m := New(cfg)
		if res := MeasureFaultyTransfer(m, 0, 1, 1024, 64*1024); res.Err != "" {
			t.Fatal(res.Err)
		}
		check(t, m, obs.CtrRelDups, obs.CtrDrops, obs.CtrDMACommands, obs.CtrPacketsOut, obs.CtrPacketsIn)
		var gaps uint64
		for _, n := range m.Nodes {
			gaps += n.NIC.Stats().RelGapDrops
		}
		if gaps == 0 {
			t.Error("no reliable data packet was dropped past a sequence gap")
		}
	})
}
