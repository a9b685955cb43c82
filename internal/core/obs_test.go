package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/vm"
)

// metricsCfg is a small machine with metrics (and tracing) enabled.
func metricsCfg(w, h int) Config {
	cfg := ConfigFor(w, h, nic.GenEISAPrototype)
	cfg.Metrics = true
	cfg.TraceCapacity = 256
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
	m.RunUntilIdle(5_000_000)
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
	m.RunUntilIdle(5_000_000)

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
	if stages == 0 || instants == 0 {
		t.Fatalf("stages=%d instants=%d", stages, instants)
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
