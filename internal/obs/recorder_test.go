package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestQuantileInterp(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// Interpolated quantiles land near the true order statistics, far
	// inside the 2x bucket-edge bound of Quantile.
	checks := []struct {
		q      float64
		lo, hi uint64
	}{
		{0.50, 450, 560},
		{0.90, 820, 980},
		{0.99, 930, 1000},
		{0.999, 960, 1000},
	}
	for _, c := range checks {
		got := h.QuantileInterp(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("QuantileInterp(%g) = %d, want in [%d,%d]", c.q, got, c.lo, c.hi)
		}
	}
	if got := h.QuantileInterp(1); got != 1000 {
		t.Errorf("QuantileInterp(1) = %d, want exact max 1000", got)
	}
	// Monotone in q.
	prev := uint64(0)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		v := h.QuantileInterp(q)
		if v < prev {
			t.Fatalf("QuantileInterp not monotone at q=%g: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileInterpEdges(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.QuantileInterp(q); got != 0 {
			t.Errorf("empty QuantileInterp(%g) = %d", q, got)
		}
	}

	var zeroes Histogram
	zeroes.Observe(0)
	zeroes.Observe(0)
	if got := zeroes.QuantileInterp(0.5); got != 0 {
		t.Errorf("all-zero QuantileInterp(0.5) = %d", got)
	}

	// Every observation in one bucket: estimates stay inside the bucket
	// and are clamped to the observed max at the top.
	var one Histogram
	for i := 0; i < 100; i++ {
		one.Observe(100) // bucket [64,127], Max 100
	}
	for _, q := range []float64{0, 0.5, 0.999} {
		got := one.QuantileInterp(q)
		if got < 64 || got > 100 {
			t.Errorf("single-bucket QuantileInterp(%g) = %d, want in [64,100]", q, got)
		}
	}
	if got := one.QuantileInterp(1); got != 100 {
		t.Errorf("single-bucket QuantileInterp(1) = %d, want 100", got)
	}

	// A single observation never estimates above the value itself.
	var single Histogram
	single.Observe(7)
	if got := single.QuantileInterp(0.5); got > 7 {
		t.Errorf("single-value QuantileInterp(0.5) = %d > 7", got)
	}
}

func TestHistogramDelta(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(100)
	prev := h
	h.Observe(1000)
	h.Observe(3)
	d := h.Delta(&prev)
	if d.Count != 2 || d.Sum != 1003 {
		t.Fatalf("delta count/sum = %d/%d, want 2/1003", d.Count, d.Sum)
	}
	if d.Max != 1000 {
		t.Fatalf("delta max = %d, want carried max 1000", d.Max)
	}
	var total uint64
	for _, n := range d.Buckets {
		total += n
	}
	if total != 2 {
		t.Fatalf("delta buckets hold %d observations, want 2", total)
	}
}

// driveRecorder paces r through n samples at its own cadence, bumping a
// counter on each node in between so the series has shape.
func driveRecorder(r *Recorder, reg *Registry, n int) {
	for i := 0; i < n; i++ {
		reg.Node(0).Add(CtrPacketsOut, 3)
		reg.Node(1).Inc(CtrPacketsIn)
		reg.Node(1).Set(GaugeOutFIFOBytes, int64(10*(i+1)))
		reg.Node(0).Observe(HistPayload, uint64(64*(i+1)))
		d := r.NextDeadline()
		r.Pace(d, d)
	}
}

func TestRecorderSeries(t *testing.T) {
	reg := New(2, 0)
	r := NewRecorder(reg, RecorderConfig{Interval: 10 * sim.Microsecond, Capacity: 8})
	driveRecorder(r, reg, 3)
	s := r.Series()
	if len(s.Times) != 3 || r.Len() != 3 || r.Taken() != 3 || s.Overwrote != 0 {
		t.Fatalf("series shape: times=%d len=%d taken=%d overwrote=%d",
			len(s.Times), r.Len(), r.Taken(), s.Overwrote)
	}
	for i, want := range []sim.Time{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond} {
		if s.Times[i] != want {
			t.Fatalf("sample %d at %v, want %v", i, s.Times[i], want)
		}
	}
	// Cumulative machine totals at each cut.
	if got := s.Counter(CtrPacketsOut); !reflect.DeepEqual(got, []uint64{3, 6, 9}) {
		t.Fatalf("packets-out series %v", got)
	}
	if got := s.Counter(CtrPacketsIn); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("packets-in series %v", got)
	}
	if got := s.Gauge(GaugeOutFIFOBytes); !reflect.DeepEqual(got, []int64{10, 20, 30}) {
		t.Fatalf("gauge series %v", got)
	}
	if got := s.HistCount(HistPayload); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("hist count series %v", got)
	}
	if got := s.HistSum(HistPayload); !reflect.DeepEqual(got, []uint64{64, 192, 384}) {
		t.Fatalf("hist sum series %v", got)
	}
}

func TestRecorderWraparound(t *testing.T) {
	reg := New(2, 0)
	r := NewRecorder(reg, RecorderConfig{Interval: 10 * sim.Microsecond, Capacity: 4})
	driveRecorder(r, reg, 6)
	if r.Len() != 4 || r.Taken() != 6 {
		t.Fatalf("len=%d taken=%d, want 4/6", r.Len(), r.Taken())
	}
	s := r.Series()
	if s.Overwrote != 2 {
		t.Fatalf("overwrote=%d, want 2", s.Overwrote)
	}
	// Oldest two samples fell off; retained window is samples 3..6.
	want := []sim.Time{30 * sim.Microsecond, 40 * sim.Microsecond, 50 * sim.Microsecond, 60 * sim.Microsecond}
	if !reflect.DeepEqual(s.Times, want) {
		t.Fatalf("times %v, want %v", s.Times, want)
	}
	if got := s.Counter(CtrPacketsOut); !reflect.DeepEqual(got, []uint64{9, 12, 15, 18}) {
		t.Fatalf("packets-out series %v", got)
	}
}

func TestRecorderResetReuse(t *testing.T) {
	fresh := func() (*Registry, *Recorder) {
		reg := New(2, 0)
		return reg, NewRecorder(reg, RecorderConfig{Interval: 10 * sim.Microsecond, Capacity: 4})
	}
	regA, ra := fresh()
	driveRecorder(ra, regA, 7) // wrap the ring first
	ra.MarkAt(5*sim.Microsecond, "stale mark")
	ra.Reset()
	regA.Reset()

	regB, rb := fresh()
	driveRecorder(ra, regA, 5)
	driveRecorder(rb, regB, 5)
	if !reflect.DeepEqual(ra.Series(), rb.Series()) {
		t.Fatalf("reset recorder diverged from fresh:\n%+v\nvs\n%+v", ra.Series(), rb.Series())
	}
}

func TestRecorderMarksBounded(t *testing.T) {
	reg := New(1, 0)
	r := NewRecorder(reg, RecorderConfig{Interval: sim.Microsecond})
	for i := 0; i < recorderMarkCapacity+10; i++ {
		r.MarkAt(sim.Time(i), "m")
	}
	if got := len(r.Series().Marks); got != recorderMarkCapacity {
		t.Fatalf("retained %d marks, want %d", got, recorderMarkCapacity)
	}
	var nilRec *Recorder
	nilRec.MarkAt(0, "ignored") // must not panic
	if nilRec.Len() != 0 || nilRec.Taken() != 0 {
		t.Fatal("nil recorder non-empty")
	}
	if s := nilRec.Series(); len(s.Times) != 0 {
		t.Fatal("nil recorder series non-empty")
	}
}

// TestRecorderZeroAlloc is the CI allocation guard for the sample path:
// pacing an armed recorder must never touch the heap.
func TestRecorderZeroAlloc(t *testing.T) {
	reg := New(16, 0)
	r := NewRecorder(reg, RecorderConfig{Interval: 10 * sim.Microsecond, Capacity: 64})
	reg.Node(3).Add(CtrBytesOut, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		d := r.NextDeadline()
		r.Pace(d, d)
	})
	if allocs != 0 {
		t.Fatalf("recorder sample path allocates %v per op, want 0", allocs)
	}
}

func BenchmarkRecorderSample(b *testing.B) {
	reg := New(16, 0)
	r := NewRecorder(reg, RecorderConfig{Interval: 10 * sim.Microsecond, Capacity: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := r.NextDeadline()
		r.Pace(d, d)
	}
}

func TestWriteOpenMetricsDeterministic(t *testing.T) {
	reg := New(2, 8)
	reg.Node(0).Add(CtrPacketsOut, 12)
	reg.Node(1).Add(CtrPacketsIn, 12)
	reg.Node(1).Set(GaugeInFIFOBytes, 96)
	reg.Node(0).Observe(HistPayload, 256)
	reg.Link("link-0").Take(2)

	render := func() string {
		var b strings.Builder
		if err := WriteOpenMetrics(&b, reg.Snapshot(), 42*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("two renders of the same snapshot differ")
	}
	if !strings.HasSuffix(a, "# EOF\n") {
		t.Fatalf("missing # EOF terminator:\n%s", a)
	}
	for _, want := range []string{
		"shrimp_sim_time_seconds 4.2e-05",
		`shrimp_packets_out_total{node="0"} 12`,
		`shrimp_in_fifo_bytes{node="1"} 96`,
		`shrimp_link_traversals_total{link="link-0"} 1`,
		"# EOF\n",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q:\n%s", want, a)
		}
	}
}

func TestRecorderWriteOpenMetrics(t *testing.T) {
	reg := New(2, 0)
	r := NewRecorder(reg, RecorderConfig{Interval: 10 * sim.Microsecond, Capacity: 8})
	driveRecorder(r, reg, 2)
	r.MarkAt(15*sim.Microsecond, `watchdog: "quoted"`)
	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"shrimp_rec_samples_total 2",
		"shrimp_rec_packets_out_total 3 0.000010000",
		"shrimp_rec_packets_out_total 6 0.000020000",
		`shrimp_rec_mark{label="watchdog: \"quoted\""} 1 0.000015000`,
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("recorder exposition missing %q:\n%s", want, out)
		}
	}
	// All-zero series stay out of the exposition.
	if strings.Contains(out, "shrimp_rec_drops") {
		t.Error("all-zero series emitted")
	}
	var nilRec *Recorder
	b.Reset()
	if err := nilRec.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "# EOF\n" {
		t.Fatalf("nil recorder exposition %q", b.String())
	}
}

// TestWriteChromeTraceEmpty pins the exact bytes of an empty trace: every
// input nil or zero must still be a loadable JSON document.
func TestWriteChromeTraceEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteChromeTrace(&b, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	const golden = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\n]}\n"
	if b.String() != golden {
		t.Fatalf("empty trace drifted:\n got %q\nwant %q", b.String(), golden)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatal("empty trace is not valid JSON")
	}
}

func TestWriteChromeTraceRecorderTracks(t *testing.T) {
	reg := New(2, 0)
	r := NewRecorder(reg, RecorderConfig{Interval: 10 * sim.Microsecond, Capacity: 8})
	driveRecorder(r, reg, 3)
	r.MarkAt(25*sim.Microsecond, "watchdog: retry-storm")
	var b strings.Builder
	if err := WriteChromeTrace(&b, 2, nil, nil, r); err != nil {
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
	var counterTracks, marks int
	var procName string
	for _, ev := range doc.TraceEvents {
		switch ev["name"] {
		case "recorder counters":
			counterTracks++
			args := ev["args"].(map[string]any)
			if _, ok := args[CtrPacketsOut.String()]; !ok {
				t.Fatalf("live counter series missing from args %v", args)
			}
			if _, dead := args[CtrDrops.String()]; dead {
				t.Fatalf("all-zero series emitted in args %v", args)
			}
		case "watchdog: retry-storm":
			marks++
		case "process_name":
			if n, _ := ev["args"].(map[string]any)["name"].(string); strings.Contains(n, "flight recorder") {
				procName = n
			}
		}
	}
	if counterTracks != 3 {
		t.Fatalf("%d recorder counter samples, want 3", counterTracks)
	}
	if marks != 1 {
		t.Fatalf("%d mark instants, want 1", marks)
	}
	if procName == "" {
		t.Fatal("no flight-recorder process metadata")
	}
}
