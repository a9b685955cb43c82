package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event JSON export (the format Perfetto and
// chrome://tracing load). Each simulated node becomes one process
// track; completed causal spans render as nestable async slices — one
// sequence of snoop → out-fifo → mesh stages under the source node and
// a deposit stage under the destination node, tied together by the span
// ID.
//
// Timestamps are microseconds (the format's unit); durations below 1 us
// survive because ts is fractional and displayTimeUnit is ns.

// chromeEvent is one trace-event object. Field names follow the trace
// event format specification.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// usPerPs converts simulated picoseconds to trace-event microseconds.
const usPerPs = 1e-6

// spanStage is one rendered stage of a span's pipeline.
type spanStage struct {
	name       string
	begin, end int64 // ps
	pid        int
}

// WriteChromeTrace renders spans, per-node counter totals, and the
// flight recorder's timeline for a machine of the given node count as
// Chrome trace-event JSON. Any slice and rec may be nil or
// empty (the output stays valid JSON — an empty trace renders an empty
// traceEvents array); counters (one NodeSnapshot per node, e.g.
// Snapshot().Nodes) render as "C" counter tracks — one series per
// counter name — sampled at the end of the timeline, and recorder
// samples render as machine-total counter tracks over time on a
// synthetic "machine" process.
func WriteChromeTrace(w io.Writer, nodes int, spans []Span, counters []NodeSnapshot, rec *Recorder) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	for n := 0; n < nodes; n++ {
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", Pid: n,
			Args: map[string]any{"name": fmt.Sprintf("node %d", n)},
		}); err != nil {
			return err
		}
		if err := emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: n, Tid: 0,
			Args: map[string]any{"name": "trace events"},
		}); err != nil {
			return err
		}
	}

	for i := range spans {
		s := &spans[i]
		id := fmt.Sprintf("0x%x", s.ID)
		depositName := "deposit"
		if s.Dropped {
			depositName = "drop"
		}
		stages := [...]spanStage{
			{"snoop", int64(s.Start), int64(s.Enqueued), s.Src},
			{"out-fifo", int64(s.Enqueued), int64(s.Injected), s.Src},
			{"mesh", int64(s.Injected), int64(s.Delivered), s.Src},
			{depositName, int64(s.Delivered), int64(s.Deposited), s.Dst},
		}
		args := map[string]any{
			"span": s.ID, "src": s.Src, "dst": s.Dst,
			"bytes": s.Bytes, "kind": s.Kind.String(),
		}
		for _, st := range stages {
			if st.end < st.begin {
				continue // span truncated before this stage
			}
			if err := emit(chromeEvent{
				Name: st.name, Cat: "xfer", Ph: "b", Pid: st.pid, Tid: 0,
				Ts: float64(st.begin) * usPerPs, ID: id, Args: args,
			}); err != nil {
				return err
			}
			if err := emit(chromeEvent{
				Name: st.name, Cat: "xfer", Ph: "e", Pid: st.pid, Tid: 0,
				Ts: float64(st.end) * usPerPs, ID: id,
			}); err != nil {
				return err
			}
		}
	}

	// Counter totals, stamped at the last timestamp on the timeline so
	// the tracks span the whole trace (json.Marshal sorts map keys, so
	// the series order is deterministic).
	var last int64
	for i := range spans {
		if d := int64(spans[i].Deposited); d > last {
			last = d
		}
	}
	for _, ns := range counters {
		if len(ns.Counters) == 0 {
			continue
		}
		args := make(map[string]any, len(ns.Counters))
		for name, v := range ns.Counters {
			args[name] = v
		}
		if err := emit(chromeEvent{
			Name: "counters", Cat: "obs", Ph: "C", Pid: ns.Node, Tid: 0,
			Ts: float64(last) * usPerPs, Args: args,
		}); err != nil {
			return err
		}
	}

	// Flight-recorder timeline: machine-total counter/gauge tracks with a
	// real time axis, on a synthetic process after the node tracks. Only
	// series that ever move are emitted.
	if s := rec.Series(); len(s.Times) > 0 {
		recPid := nodes
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", Pid: recPid,
			Args: map[string]any{"name": "machine (flight recorder)"},
		}); err != nil {
			return err
		}
		live := make([]Counter, 0, int(numCounters))
		for c := Counter(0); c < numCounters; c++ {
			for _, v := range s.Counter(c) {
				if v != 0 {
					live = append(live, c)
					break
				}
			}
		}
		liveG := make([]Gauge, 0, int(numGauges))
		for g := Gauge(0); g < numGauges; g++ {
			for _, v := range s.Gauge(g) {
				if v != 0 {
					liveG = append(liveG, g)
					break
				}
			}
		}
		for i, t := range s.Times {
			if len(live) > 0 {
				args := make(map[string]any, len(live))
				for _, c := range live {
					args[c.String()] = s.Counter(c)[i]
				}
				if err := emit(chromeEvent{
					Name: "recorder counters", Cat: "obs", Ph: "C", Pid: recPid, Tid: 0,
					Ts: float64(t) * usPerPs, Args: args,
				}); err != nil {
					return err
				}
			}
			if len(liveG) > 0 {
				args := make(map[string]any, len(liveG))
				for _, g := range liveG {
					args[g.String()] = s.Gauge(g)[i]
				}
				if err := emit(chromeEvent{
					Name: "recorder gauges", Cat: "obs", Ph: "C", Pid: recPid, Tid: 0,
					Ts: float64(t) * usPerPs, Args: args,
				}); err != nil {
					return err
				}
			}
		}
		for _, m := range s.Marks {
			if err := emit(chromeEvent{
				Name: m.Label, Cat: "obs", Ph: "i", Scope: "g",
				Pid: recPid, Tid: 0, Ts: float64(m.At) * usPerPs,
			}); err != nil {
				return err
			}
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
