package obs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// OpenMetrics/Prometheus text exposition for the registry and the flight
// recorder. Output is deterministic by construction: families iterate in
// const ID order, nodes in ascending order, links in registration order,
// and every value is a pure function of the simulated run — so two runs
// of the same workload diff byte-identical, which ci.sh gates.

// metricName converts a registry name to an OpenMetrics family name:
// shrimp_ prefix, dashes to underscores.
func metricName(name string) string {
	return "shrimp_" + strings.ReplaceAll(name, "-", "_")
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WriteOpenMetrics writes the snapshot in OpenMetrics text exposition
// format, ending with the # EOF terminator. now stamps the simulated
// time the snapshot was cut at (exposed as shrimp_sim_time_seconds).
func WriteOpenMetrics(w io.Writer, s Snapshot, now sim.Time) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("# TYPE shrimp_sim_time_seconds gauge\n")
	pf("# HELP shrimp_sim_time_seconds simulated time of this scrape\n")
	pf("shrimp_sim_time_seconds %g\n", now.Seconds())

	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		family := metricName(name)
		wrote := false
		for _, n := range s.Nodes {
			v, ok := n.Counters[name]
			if !ok {
				continue
			}
			if !wrote {
				pf("# TYPE %s counter\n", family)
				wrote = true
			}
			pf("%s_total{node=\"%d\"} %d\n", family, n.Node, v)
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		name := g.String()
		family := metricName(name)
		wrote := false
		for _, n := range s.Nodes {
			v, ok := n.Gauges[name]
			if !ok {
				continue
			}
			if !wrote {
				pf("# TYPE %s gauge\n", family)
				wrote = true
			}
			pf("%s{node=\"%d\"} %d\n", family, n.Node, v)
		}
	}
	for h := Hist(0); h < numHists; h++ {
		name := h.String()
		family := metricName(name)
		wrote := false
		for _, n := range s.Nodes {
			hs, ok := n.Hists[name]
			if !ok {
				continue
			}
			if !wrote {
				pf("# TYPE %s summary\n", family)
				wrote = true
			}
			pf("%s{node=\"%d\",quantile=\"0.5\"} %d\n", family, n.Node, hs.P50)
			pf("%s{node=\"%d\",quantile=\"0.9\"} %d\n", family, n.Node, hs.P90)
			pf("%s{node=\"%d\",quantile=\"0.99\"} %d\n", family, n.Node, hs.P99)
			pf("%s{node=\"%d\",quantile=\"0.999\"} %d\n", family, n.Node, hs.P999)
			pf("%s_count{node=\"%d\"} %d\n", family, n.Node, hs.Count)
			pf("%s_sum{node=\"%d\"} %.0f\n", family, n.Node, hs.Mean*float64(hs.Count))
		}
	}
	if len(s.Links) > 0 {
		pf("# TYPE shrimp_link_traversals counter\n")
		for _, l := range s.Links {
			pf("shrimp_link_traversals_total{link=\"%s\"} %d\n", escapeLabel(l.Name), l.Traversals)
		}
		pf("# TYPE shrimp_link_flit_hops counter\n")
		for _, l := range s.Links {
			pf("shrimp_link_flit_hops_total{link=\"%s\"} %d\n", escapeLabel(l.Name), l.FlitHops)
		}
		pf("# TYPE shrimp_link_waits counter\n")
		for _, l := range s.Links {
			pf("shrimp_link_waits_total{link=\"%s\"} %d\n", escapeLabel(l.Name), l.Waits)
		}
		pf("# TYPE shrimp_link_max_queue gauge\n")
		for _, l := range s.Links {
			pf("shrimp_link_max_queue{link=\"%s\"} %d\n", escapeLabel(l.Name), l.MaxQueue)
		}
	}
	pf("# TYPE shrimp_spans_finished counter\n")
	pf("shrimp_spans_finished_total %d\n", s.SpansFinished)
	pf("# TYPE shrimp_spans_dropped counter\n")
	pf("shrimp_spans_dropped_total %d\n", s.SpansDropped)
	pf("# TYPE shrimp_spans_untracked counter\n")
	pf("shrimp_spans_untracked_total %d\n", s.SpansTruncated)
	pf("# EOF\n")
	return err
}

// WriteOpenMetrics writes the recorder's retained timeline in exposition
// format with explicit per-sample timestamps (simulated seconds), one
// line per sample per series, machine totals under a shrimp_rec_ prefix.
// All-zero series are elided. Nil-safe: a nil recorder writes only the
// terminator.
func (r *Recorder) WriteOpenMetrics(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if r == nil {
		pf("# EOF\n")
		return err
	}
	s := r.Series()
	ts := make([]string, len(s.Times))
	for i, t := range s.Times {
		ts[i] = fmt.Sprintf("%.9f", t.Seconds())
	}
	pf("# TYPE shrimp_rec_samples counter\n")
	pf("shrimp_rec_samples_total %d\n", r.Taken())
	anyNonZero := func(vs []uint64) bool {
		for _, v := range vs {
			if v != 0 {
				return true
			}
		}
		return false
	}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		vs := s.Counter(c)
		if !anyNonZero(vs) {
			continue
		}
		family := "shrimp_rec_" + strings.ReplaceAll(name, "-", "_")
		pf("# TYPE %s counter\n", family)
		for i, v := range vs {
			pf("%s_total %d %s\n", family, v, ts[i])
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		vs := s.Gauge(g)
		nz := false
		for _, v := range vs {
			if v != 0 {
				nz = true
				break
			}
		}
		if !nz {
			continue
		}
		family := "shrimp_rec_" + strings.ReplaceAll(g.String(), "-", "_")
		pf("# TYPE %s gauge\n", family)
		for i, v := range vs {
			pf("%s %d %s\n", family, v, ts[i])
		}
	}
	for h := Hist(0); h < numHists; h++ {
		name := h.String()
		counts, sums := s.HistCount(h), s.HistSum(h)
		if !anyNonZero(counts) {
			continue
		}
		family := "shrimp_rec_" + strings.ReplaceAll(name, "-", "_")
		pf("# TYPE %s summary\n", family)
		for i := range counts {
			pf("%s_count %d %s\n", family, counts[i], ts[i])
			pf("%s_sum %d %s\n", family, sums[i], ts[i])
		}
	}
	if len(s.Marks) > 0 {
		pf("# TYPE shrimp_rec_mark gauge\n")
		for _, m := range s.Marks {
			pf("shrimp_rec_mark{label=\"%s\"} 1 %.9f\n", escapeLabel(m.Label), m.At.Seconds())
		}
	}
	pf("# EOF\n")
	return err
}
