package obs

import (
	"repro/internal/sim"
)

// The flight recorder: a zero-allocation in-simulation sampler that
// snapshots the registry into a preallocated ring at a fixed simulated
// cadence, giving every counter and gauge a time series and every
// histogram a windowed rate — the time axis the end-of-run Snapshot
// lacks.
//
// The recorder is a sim.Pacer (see internal/sim/pacer.go): the engine
// hands it control at each deadline D once every event strictly before
// D has fired and nothing at or after D has. Each sample is therefore a
// pure function of the event order: the per-node scopes are summed into
// machine totals in ascending node order at the cut, so recorder
// samples are bit-identical run to run.
//
// Recording never schedules events, never advances clocks, and never
// allocates on the sample path; arming a recorder changes no simulated
// result (differential tests in internal/core enforce this).

// DefaultRecorderCapacity is the default sample-ring capacity: with the
// default 10 µs cadence it retains the last ~10 ms of simulated time.
const DefaultRecorderCapacity = 1024

// DefaultRecorderInterval is the sampling cadence CLIs default to.
const DefaultRecorderInterval = 10 * sim.Microsecond

// recorderMarkCapacity bounds the retained recorder marks (peer-down
// declarations, harness annotations); later marks are counted but
// dropped.
const recorderMarkCapacity = 64

// RecorderConfig arms the flight recorder. The zero value disables it.
// The struct is comparable so it can ride core.Config.
type RecorderConfig struct {
	// Interval is the sampling cadence in simulated time; <= 0 disables
	// the recorder.
	Interval sim.Time
	// Capacity is the number of samples retained (a ring holding the
	// most recent Capacity samples); <= 0 selects
	// DefaultRecorderCapacity.
	Capacity int
}

// Mark is one annotation pinned to the recorder timeline (a peer-down
// declaration, a harness phase boundary).
type Mark struct {
	At    sim.Time `json:"at"`
	Label string   `json:"label"`
}

// Recorder samples a Registry into preallocated rings. Build one with
// NewRecorder and install it as the machine's pacer.
type Recorder struct {
	reg      *Registry
	interval sim.Time
	cap      int

	next  sim.Time // next sample deadline
	taken int      // samples taken since reset; ring cursor = taken % cap

	// Flat sample rings: slot i of times pairs with rows
	// [i*numX : (i+1)*numX] of each value ring. Values are cumulative
	// machine totals; consumers difference adjacent samples for rates.
	times    []sim.Time
	counters []uint64 // cap x numCounters
	gauges   []int64  // cap x numGauges
	histN    []uint64 // cap x numHists: histogram Count totals
	histSum  []uint64 // cap x numHists: histogram Sum totals

	marks        []Mark // len <= recorderMarkCapacity, backing preallocated
	marksDropped uint64

	onSample func(at sim.Time)
}

// NewRecorder builds a recorder over reg. All rings are allocated here;
// the sample path never touches the heap again.
func NewRecorder(reg *Registry, cfg RecorderConfig) *Recorder {
	if cfg.Interval <= 0 {
		panic("obs: recorder interval must be positive")
	}
	n := cfg.Capacity
	if n <= 0 {
		n = DefaultRecorderCapacity
	}
	return &Recorder{
		reg:      reg,
		interval: cfg.Interval,
		cap:      n,
		next:     cfg.Interval,
		times:    make([]sim.Time, n),
		counters: make([]uint64, n*int(numCounters)),
		gauges:   make([]int64, n*int(numGauges)),
		histN:    make([]uint64, n*int(numHists)),
		histSum:  make([]uint64, n*int(numHists)),
		marks:    make([]Mark, 0, recorderMarkCapacity),
	}
}

// NextDeadline implements sim.Pacer.
func (r *Recorder) NextDeadline() sim.Time { return r.next }

// Pace implements sim.Pacer: sample the registry as of deadline, then
// advance the cadence. Quiet stretches produce one (flat) sample per
// interval — a time series keeps its time axis even when nothing moves.
func (r *Recorder) Pace(deadline, head sim.Time) {
	r.sample(deadline)
	r.next = deadline + r.interval
	if r.onSample != nil {
		r.onSample(deadline)
	}
}

// sample records one cut: machine totals summed over the per-node scopes
// in ascending node order. Allocation-free.
func (r *Recorder) sample(at sim.Time) {
	slot := r.taken % r.cap
	r.taken++
	r.times[slot] = at
	crow := r.counters[slot*int(numCounters) : (slot+1)*int(numCounters)]
	grow := r.gauges[slot*int(numGauges) : (slot+1)*int(numGauges)]
	hnrow := r.histN[slot*int(numHists) : (slot+1)*int(numHists)]
	hsrow := r.histSum[slot*int(numHists) : (slot+1)*int(numHists)]
	clear(crow)
	clear(grow)
	clear(hnrow)
	clear(hsrow)
	for n := range r.reg.nodes {
		s := &r.reg.nodes[n]
		for c := range crow {
			crow[c] += s.counters[c]
		}
		for g := range grow {
			grow[g] += s.gauges[g]
		}
		for h := range hnrow {
			hnrow[h] += s.hists[h].Count
			hsrow[h] += s.hists[h].Sum
		}
	}
}

// SetOnSample installs a callback invoked after each sample with the
// sample's deadline (nil removes it). It runs between events, so it
// may read the registry and recorder, but must not mutate simulation
// state. Live exporters (shrimp-top) use it to publish; the zero-alloc
// sample contract covers the recorder itself, not the callback.
func (r *Recorder) SetOnSample(fn func(at sim.Time)) { r.onSample = fn }

// MarkAt pins a labeled annotation to the recorder timeline. Bounded and
// allocation-free (constant labels): past recorderMarkCapacity, marks
// are counted as dropped instead of retained.
func (r *Recorder) MarkAt(at sim.Time, label string) {
	if r == nil {
		return
	}
	if len(r.marks) < cap(r.marks) {
		r.marks = append(r.marks, Mark{At: at, Label: label})
	} else {
		r.marksDropped++
	}
}

// Len reports the number of retained samples (at most Capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.taken < r.cap {
		return r.taken
	}
	return r.cap
}

// Taken reports the total samples taken since reset, including any the
// ring has since overwritten.
func (r *Recorder) Taken() int {
	if r == nil {
		return 0
	}
	return r.taken
}

// Interval returns the sampling cadence.
func (r *Recorder) Interval() sim.Time { return r.interval }

// Reset returns the recorder to its just-built state in O(used): only
// the slots actually written are cleared, and the ring capacity is kept.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	used := r.taken
	if used > r.cap {
		used = r.cap
	}
	clear(r.times[:used])
	clear(r.counters[:used*int(numCounters)])
	clear(r.gauges[:used*int(numGauges)])
	clear(r.histN[:used*int(numHists)])
	clear(r.histSum[:used*int(numHists)])
	r.taken = 0
	r.next = r.interval
	clear(r.marks) // drop label references before truncating
	r.marks = r.marks[:0]
	r.marksDropped = 0
}

// Series is the recorder's retained timeline, unwrapped oldest-to-newest
// for export. Value slices are indexed by the Counter/Gauge/Hist consts
// and hold cumulative machine totals; difference adjacent entries for
// per-window rates.
type Series struct {
	Interval   sim.Time   `json:"interval"`
	Overwrote  int        `json:"overwrote,omitempty"` // older samples lost to ring wraparound
	Times      []sim.Time `json:"times"`
	Counters   [][]uint64 `json:"counters"`
	Gauges     [][]int64  `json:"gauges"`
	HistCounts [][]uint64 `json:"hist_counts"`
	HistSums   [][]uint64 `json:"hist_sums"`
	Marks      []Mark     `json:"marks,omitempty"`
}

// Counter returns c's time series.
func (s *Series) Counter(c Counter) []uint64 { return s.Counters[c] }

// Gauge returns g's time series.
func (s *Series) Gauge(g Gauge) []int64 { return s.Gauges[g] }

// HistCount returns h's cumulative observation-count series.
func (s *Series) HistCount(h Hist) []uint64 { return s.HistCounts[h] }

// HistSum returns h's cumulative sum series.
func (s *Series) HistSum(h Hist) []uint64 { return s.HistSums[h] }

// Series renders the retained samples (cold path; allocates). Nil-safe:
// a nil recorder yields an empty series.
func (r *Recorder) Series() Series {
	s := Series{
		Counters:   make([][]uint64, numCounters),
		Gauges:     make([][]int64, numGauges),
		HistCounts: make([][]uint64, numHists),
		HistSums:   make([][]uint64, numHists),
	}
	n := r.Len()
	if r != nil {
		s.Interval = r.interval
		s.Overwrote = r.taken - n
		s.Marks = append([]Mark(nil), r.marks...)
	}
	s.Times = make([]sim.Time, n)
	for i := range s.Counters {
		s.Counters[i] = make([]uint64, n)
	}
	for i := range s.Gauges {
		s.Gauges[i] = make([]int64, n)
	}
	for i := range s.HistCounts {
		s.HistCounts[i] = make([]uint64, n)
		s.HistSums[i] = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		slot := i
		if r.taken > r.cap {
			slot = (r.taken + i) % r.cap
		}
		s.Times[i] = r.times[slot]
		for c := 0; c < int(numCounters); c++ {
			s.Counters[c][i] = r.counters[slot*int(numCounters)+c]
		}
		for g := 0; g < int(numGauges); g++ {
			s.Gauges[g][i] = r.gauges[slot*int(numGauges)+g]
		}
		for h := 0; h < int(numHists); h++ {
			s.HistCounts[h][i] = r.histN[slot*int(numHists)+h]
			s.HistSums[h][i] = r.histSum[slot*int(numHists)+h]
		}
	}
	return s
}
