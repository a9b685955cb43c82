package core

import (
	"io"

	"repro/internal/obs"
)

// Metrics returns a point-in-time snapshot of the machine's metrics
// registry. With Config.Metrics off it returns a zero-value snapshot.
func (m *Machine) Metrics() obs.Snapshot { return m.Obs.Snapshot() }

// TraceJSON renders the machine's observability state — completed
// causal spans as per-node async tracks, per-node counter totals
// (batching, trace cache, NIC, kernel) as counter tracks, and the
// flight recorder's samples and marks when one is armed — in Chrome
// trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Spans and counters require
// Config.Metrics; without it the output is a valid timeline holding
// only the per-node process tracks.
func (m *Machine) TraceJSON(w io.Writer) error {
	return obs.WriteChromeTrace(w, m.Cfg.NodeCount(), m.Obs.CompletedSpans(),
		m.Obs.Snapshot().Nodes, m.Rec)
}

// WriteOpenMetrics writes the machine's registry snapshot in OpenMetrics
// text exposition format, followed by the flight recorder's timeline
// when one is armed (Config.Recorder.Interval > 0).
func (m *Machine) WriteOpenMetrics(w io.Writer) error {
	if err := obs.WriteOpenMetrics(w, m.Obs.Snapshot(), m.Now()); err != nil {
		return err
	}
	if m.Rec == nil {
		return nil
	}
	return m.Rec.WriteOpenMetrics(w)
}
