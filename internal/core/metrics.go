package core

import (
	"io"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Metrics returns a point-in-time snapshot of the machine's metrics
// registry. With Config.Metrics off it returns a zero-value snapshot.
func (m *Machine) Metrics() obs.Snapshot { return m.Obs.Snapshot() }

// TraceJSON renders the machine's observability state — completed
// causal spans as per-node async tracks, any trace.Tracer events as
// instants, and per-node counter totals (batching, trace cache, spin
// fast-forward, NIC) as counter tracks — in Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Spans and
// counters require Config.Metrics; instants require
// Config.TraceCapacity; with neither, the output is a valid but empty
// timeline.
func (m *Machine) TraceJSON(w io.Writer) error {
	var events []trace.Event
	if m.Tracer != nil {
		events = m.Tracer.Events()
	}
	return obs.WriteChromeTrace(w, m.Cfg.NodeCount(), m.Obs.CompletedSpans(), events,
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
