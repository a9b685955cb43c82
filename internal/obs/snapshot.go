package obs

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Snapshot is a point-in-time export of a registry, built for human
// tables, JSON dumps and test equality (maps keyed by metric name, so
// reflect.DeepEqual compares semantically, not by array layout). Zero
// counters, gauges and histograms are omitted.
type Snapshot struct {
	Nodes          []NodeSnapshot `json:"nodes"`
	Links          []LinkStat     `json:"links,omitempty"`
	SpansFinished  uint64         `json:"spans_finished"`
	SpansDropped   uint64         `json:"spans_dropped,omitempty"`
	SpansTruncated uint64         `json:"spans_truncated,omitempty"`
}

// NodeSnapshot is one node's non-zero metrics.
type NodeSnapshot struct {
	Node     int                     `json:"node"`
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// HistSnapshot summarizes one histogram: count, mean and interpolated
// log2-bucket quantiles (see Histogram.QuantileInterp).
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
	Max   uint64  `json:"max"`
}

func histSnapshot(h *Histogram) HistSnapshot {
	return HistSnapshot{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.QuantileInterp(0.50),
		P90:   h.QuantileInterp(0.90),
		P99:   h.QuantileInterp(0.99),
		P999:  h.QuantileInterp(0.999),
		Max:   h.Max,
	}
}

// Snapshot exports the registry's current state; nil-safe (zero-value
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	if r == nil {
		return out
	}
	out.Nodes = make([]NodeSnapshot, len(r.nodes))
	for i := range r.nodes {
		s := &r.nodes[i]
		ns := NodeSnapshot{Node: i}
		for c := Counter(0); c < numCounters; c++ {
			if v := s.counters[c]; v != 0 {
				if ns.Counters == nil {
					ns.Counters = make(map[string]uint64)
				}
				ns.Counters[c.String()] = v
			}
		}
		for g := Gauge(0); g < numGauges; g++ {
			if v := s.gauges[g]; v != 0 {
				if ns.Gauges == nil {
					ns.Gauges = make(map[string]int64)
				}
				ns.Gauges[g.String()] = v
			}
		}
		for h := Hist(0); h < numHists; h++ {
			if hist := &s.hists[h]; hist.Count != 0 {
				if ns.Hists == nil {
					ns.Hists = make(map[string]HistSnapshot)
				}
				ns.Hists[h.String()] = histSnapshot(hist)
			}
		}
		out.Nodes[i] = ns
	}
	for _, l := range r.links {
		if l.Traversals != 0 || l.Waits != 0 {
			out.Links = append(out.Links, *l)
		}
	}
	out.SpansFinished, out.SpansDropped, out.SpansTruncated = r.SpanCounts()
	return out
}

// stageHists are the per-stage latency histograms in pipeline order.
var stageHists = [...]Hist{
	HistStageSnoop, HistStageFIFO, HistStageMesh, HistStageDeposit, HistStageTotal,
}

// WriteStageTable renders the machine-wide per-stage latency breakdown
// (derived from completed causal spans) as a markdown table; nil-safe
// (writes a disabled notice).
func (r *Registry) WriteStageTable(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "metrics disabled (Config.Metrics = false)")
		return err
	}
	if _, err := fmt.Fprintln(w, "| stage | spans | mean | p50 | p90 | p99 | p999 | max |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|"); err != nil {
		return err
	}
	for _, h := range stageHists {
		agg := r.StageHist(h)
		if _, err := fmt.Fprintf(w, "| %s | %d | %v | %v | %v | %v | %v | %v |\n",
			h, agg.Count,
			sim.Time(agg.Mean()), sim.Time(agg.QuantileInterp(0.50)),
			sim.Time(agg.QuantileInterp(0.90)), sim.Time(agg.QuantileInterp(0.99)),
			sim.Time(agg.QuantileInterp(0.999)), sim.Time(agg.Max)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders a machine-wide summary — aggregate counters, span
// accounting, the stage table, and the busiest links — as plain text;
// nil-safe.
func (r *Registry) WriteTable(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "metrics disabled (Config.Metrics = false)")
		return err
	}
	if _, err := fmt.Fprintf(w, "counters (machine totals, %d nodes):\n", len(r.nodes)); err != nil {
		return err
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := r.Total(c); v != 0 {
			if _, err := fmt.Fprintf(w, "  %-18s %12d\n", c, v); err != nil {
				return err
			}
		}
	}
	fin, drop, trunc := r.SpanCounts()
	if _, err := fmt.Fprintf(w, "spans: %d finished, %d dropped, %d untracked\n",
		fin, drop, trunc); err != nil {
		return err
	}
	if err := r.WriteStageTable(w); err != nil {
		return err
	}
	// Busiest links: any with contention, else top traversals only.
	var contended int
	for _, l := range r.links {
		if l.Waits > 0 {
			contended++
		}
	}
	if contended > 0 {
		if _, err := fmt.Fprintf(w, "contended links (%d):\n", contended); err != nil {
			return err
		}
		for _, l := range r.links {
			if l.Waits > 0 {
				if _, err := fmt.Fprintf(w, "  %-14s traversals=%d flit-hops=%d waits=%d max-queue=%d\n",
					l.Name, l.Traversals, l.FlitHops, l.Waits, l.MaxQueue); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
