package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	var s *NodeScope
	var l *LinkStat
	s.Inc(CtrPacketsOut)
	s.Add(CtrBytesOut, 7)
	s.Set(GaugeOutFIFOBytes, 9)
	s.Observe(HistPayload, 3)
	s.ObserveTime(HistStageMesh, sim.Microsecond)
	l.Take(4)
	l.Wait(1)
	if s.Counter(CtrPacketsOut) != 0 || s.Hist(HistPayload).Count != 0 {
		t.Fatal("nil scope recorded something")
	}
	if r.Node(3) != nil || r.Link("x") != nil || r.NodeCount() != 0 {
		t.Fatal("nil registry handed out scopes")
	}
	if ref := r.BeginSpan(0, 1, 4, SpanSingleWrite, 0); ref != 0 {
		t.Fatal("nil registry minted a span")
	}
	r.SpanEnqueued(0, 0)
	r.SpanDeposited(0, 0)
	r.Reset()
	if snap := r.Snapshot(); len(snap.Nodes) != 0 {
		t.Fatal("nil snapshot non-empty")
	}
	var b strings.Builder
	if err := r.WriteTable(&b); err != nil || !strings.Contains(b.String(), "disabled") {
		t.Fatalf("nil WriteTable: %v %q", err, b.String())
	}
}

func TestNamesInSync(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if c.String() == "" || c.String() == "counter(?)" {
			t.Fatalf("counter %d unnamed", c)
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		if g.String() == "" || g.String() == "gauge(?)" {
			t.Fatalf("gauge %d unnamed", g)
		}
	}
	for h := Hist(0); h < numHists; h++ {
		if h.String() == "" || h.String() == "hist(?)" {
			t.Fatalf("hist %d unnamed", h)
		}
	}
	for k := SpanKind(0); k < numSpanKinds; k++ {
		if k.String() == "" || k.String() == "span(?)" {
			t.Fatalf("span kind %d unnamed", k)
		}
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count != 1000 || h.Max != 1000 {
		t.Fatalf("count=%d max=%d", h.Count, h.Max)
	}
	if got := h.Mean(); got != 500.5 {
		t.Fatalf("mean %v", got)
	}
	// The top quantile clamps to the observed max, not the bucket edge.
	if got := h.QuantileInterp(1.0); got != 1000 {
		t.Fatalf("p100 %d", got)
	}
	if got := h.QuantileInterp(0.0); got != 1 {
		t.Fatalf("p0 %d", got)
	}
	var zero Histogram
	zero.Observe(0)
	if zero.Buckets[0] != 1 || zero.QuantileInterp(0.9) != 0 {
		t.Fatal("zero-value bucket")
	}
	// Values beyond the last bucket edge clamp instead of indexing out.
	var big Histogram
	big.Observe(1 << 62)
	if big.Buckets[HistBuckets-1] != 1 {
		t.Fatal("overflow bucket")
	}
}

func TestSpanLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	r := New(4, 16)
	ref := r.BeginSpan(1, 3, 64, SpanBlockedWrite, eng.Now())
	if ref == 0 {
		t.Fatal("no ref")
	}
	eng.Advance(100)
	r.SpanEnqueued(ref, eng.Now())
	eng.Advance(200)
	r.SpanInjected(ref, eng.Now())
	eng.Advance(300)
	r.SpanDelivered(ref, eng.Now())
	eng.Advance(400)
	r.SpanDeposited(ref, eng.Now())

	spans := r.CompletedSpans()
	if len(spans) != 1 {
		t.Fatalf("completed %d", len(spans))
	}
	s := spans[0]
	if s.Src != 1 || s.Dst != 3 || s.Bytes != 64 || s.Kind != SpanBlockedWrite || s.Dropped {
		t.Fatalf("span %+v", s)
	}
	if s.Enqueued-s.Start != 100 || s.Injected-s.Enqueued != 200 ||
		s.Delivered-s.Injected != 300 || s.Deposited-s.Delivered != 400 {
		t.Fatalf("stages %+v", s)
	}
	// Stage histograms land on the source node.
	src := r.Node(1)
	for h, want := range map[Hist]uint64{
		HistStageSnoop: 100, HistStageFIFO: 200, HistStageMesh: 300,
		HistStageDeposit: 400, HistStageTotal: 1000,
	} {
		hist := src.Hist(h)
		if hist.Count != 1 || hist.Sum != want {
			t.Fatalf("%v: count=%d sum=%d want sum %d", h, hist.Count, hist.Sum, want)
		}
	}
	if fin, drop, trunc := r.SpanCounts(); fin != 1 || drop != 0 || trunc != 0 {
		t.Fatalf("counts %d %d %d", fin, drop, trunc)
	}
}

func TestSpanDropAndTruncation(t *testing.T) {
	eng := sim.NewEngine()
	r := New(2, 2)
	// Dropped span: total histogram must NOT be fed.
	ref := r.BeginSpan(0, 1, 4, SpanSingleWrite, eng.Now())
	r.SpanEnqueued(ref, eng.Now())
	r.SpanInjected(ref, eng.Now())
	r.SpanDelivered(ref, eng.Now())
	r.SpanDropped(ref, eng.Now())
	if r.Node(0).Hist(HistStageTotal).Count != 0 {
		t.Fatal("dropped span fed total histogram")
	}
	if got := r.CompletedSpans(); len(got) != 1 || !got[0].Dropped {
		t.Fatalf("completed %+v", got)
	}
	// Slab exhaustion: two active spans fill capacity 2; the third is
	// untracked (ref 0) and counted as truncated.
	a := r.BeginSpan(0, 1, 4, SpanSingleWrite, 0)
	b := r.BeginSpan(0, 1, 4, SpanSingleWrite, 0)
	if a == 0 || b == 0 {
		t.Fatal("slab should have room")
	}
	if c := r.BeginSpan(0, 1, 4, SpanSingleWrite, 0); c != 0 {
		t.Fatal("slab overflow not detected")
	}
	if _, _, trunc := r.SpanCounts(); trunc != 1 {
		t.Fatalf("truncated %d", trunc)
	}
	// Freeing one slot makes Begin succeed again.
	r.SpanDeposited(a, eng.Now())
	if c := r.BeginSpan(0, 1, 4, SpanSingleWrite, 0); c == 0 {
		t.Fatal("slot not recycled")
	}
}

func TestCompletedRingWraparound(t *testing.T) {
	eng := sim.NewEngine()
	r := New(1, 4)
	for i := 0; i < 10; i++ {
		ref := r.BeginSpan(0, 0, i, SpanSingleWrite, eng.Now())
		r.SpanDeposited(ref, eng.Now())
	}
	spans := r.CompletedSpans()
	if len(spans) != 4 {
		t.Fatalf("retained %d", len(spans))
	}
	for i, s := range spans {
		if s.Bytes != 6+i {
			t.Fatalf("span %d bytes %d", i, s.Bytes)
		}
	}
}

func TestRegistryReset(t *testing.T) {
	eng := sim.NewEngine()
	r := New(2, 8)
	fresh := r.Snapshot()
	l := r.Link("inj(0,0)")

	r.Node(0).Inc(CtrPacketsOut)
	r.Node(1).Set(GaugeInFIFOBytes, 42)
	r.Node(1).Observe(HistPayload, 64)
	l.Take(3)
	l.Wait(2)
	ref := r.BeginSpan(0, 1, 4, SpanSingleWrite, eng.Now())
	r.SpanDeposited(ref, eng.Now())
	r.BeginSpan(0, 1, 4, SpanSingleWrite, eng.Now()) // left active

	r.Reset()
	got := r.Snapshot()
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("reset snapshot differs:\n got %+v\nwant %+v", got, fresh)
	}
	if len(r.CompletedSpans()) != 0 {
		t.Fatal("completed spans survived reset")
	}
	// Span IDs restart, so a reset machine is bit-identical to a fresh one.
	ref = r.BeginSpan(0, 1, 4, SpanSingleWrite, eng.Now())
	r.SpanDeposited(ref, eng.Now())
	if spans := r.CompletedSpans(); spans[0].ID != 1 {
		t.Fatalf("post-reset span ID %d", spans[0].ID)
	}
}

func TestSnapshotOmitsZeros(t *testing.T) {
	r := New(2, 8)
	r.Node(0).Inc(CtrDrops)
	snap := r.Snapshot()
	if len(snap.Nodes) != 2 {
		t.Fatalf("nodes %d", len(snap.Nodes))
	}
	if snap.Nodes[0].Counters["drops"] != 1 || len(snap.Nodes[0].Counters) != 1 {
		t.Fatalf("node0 counters %v", snap.Nodes[0].Counters)
	}
	if snap.Nodes[1].Counters != nil || snap.Nodes[1].Hists != nil {
		t.Fatal("zero node not omitted")
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	eng := sim.NewEngine()
	r := New(2, 8)
	ref := r.BeginSpan(0, 1, 64, SpanDeliberate, eng.Now())
	eng.Advance(150 * sim.Nanosecond)
	r.SpanEnqueued(ref, eng.Now())
	eng.Advance(100 * sim.Nanosecond)
	r.SpanInjected(ref, eng.Now())
	eng.Advance(70 * sim.Nanosecond)
	r.SpanDelivered(ref, eng.Now())
	eng.Advance(500 * sim.Nanosecond)
	r.SpanDeposited(ref, eng.Now())

	r.Node(0).Inc(CtrTraceHits)
	r.Node(0).Add(CtrBusWaitPs, 12345)
	var b strings.Builder
	if err := WriteChromeTrace(&b, 2, r.CompletedSpans(), r.Snapshot().Nodes, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !json.Valid([]byte(out)) {
		t.Fatalf("invalid JSON:\n%s", out)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		names = append(names, ev["name"].(string))
		if ev["ph"] == "i" {
			t.Fatalf("instant %v without a recorder", ev)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"process_name", "snoop", "out-fifo", "mesh", "deposit", "counters"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in %s", want, joined)
		}
	}
	// 2 nodes x 2 metadata + 4 stages x b/e + 1 counter track (only
	// node 0 has non-zero counters).
	if len(doc.TraceEvents) != 4+8+1 {
		t.Fatalf("event count %d", len(doc.TraceEvents))
	}
	// The counter event carries each non-zero series by name.
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "counters" {
			args := ev["args"].(map[string]any)
			if args[CtrTraceHits.String()] != 1.0 || args[CtrBusWaitPs.String()] != 12345.0 {
				t.Fatalf("counter args wrong: %v", args)
			}
		}
	}
}

// TestInstrumentationZeroAlloc is the CI allocation guard for the hot
// path: counters, gauges, histograms and the complete span lifecycle
// must not allocate. (ci.sh runs it by name.)
func TestInstrumentationZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	r := New(4, 64)
	s := r.Node(0)
	l := r.Link("l")
	allocs := testing.AllocsPerRun(1000, func() {
		s.Inc(CtrSnoopedWrites)
		s.Add(CtrBytesOut, 64)
		s.Set(GaugeOutFIFOBytes, 128)
		s.Observe(HistOutFIFODepth, 128)
		l.Take(8)
		l.Wait(1)
		ref := r.BeginSpan(0, 3, 64, SpanSingleWrite, eng.Now())
		r.SpanEnqueued(ref, eng.Now())
		r.SpanInjected(ref, eng.Now())
		r.SpanDelivered(ref, eng.Now())
		r.SpanDeposited(ref, eng.Now())
	})
	if allocs != 0 {
		t.Fatalf("instrumentation hot path allocates: %.1f allocs/op", allocs)
	}
}
