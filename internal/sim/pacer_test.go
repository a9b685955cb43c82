package sim

import (
	"testing"
)

// recordingPacer logs every cut it is handed: the deadline, the head that
// triggered it, and a caller-supplied probe of machine state.
type recordingPacer struct {
	interval Time
	next     Time
	cuts     []cut
	probe    func() uint64
	stuck    bool // refuse to advance NextDeadline (livelock-guard test)
}

type cut struct {
	deadline, head Time
	state          uint64
}

func newRecordingPacer(interval Time, probe func() uint64) *recordingPacer {
	return &recordingPacer{interval: interval, next: interval, probe: probe}
}

func (p *recordingPacer) NextDeadline() Time { return p.next }

func (p *recordingPacer) Pace(deadline, head Time) {
	var s uint64
	if p.probe != nil {
		s = p.probe()
	}
	p.cuts = append(p.cuts, cut{deadline, head, s})
	if !p.stuck {
		p.next = deadline + p.interval
	}
}

// TestEnginePacerCut: the pacer fires exactly when the next pending event
// first reaches a deadline — every event strictly before D has fired,
// nothing at or after D has.
func TestEnginePacerCut(t *testing.T) {
	e := NewEngine()
	fired := uint64(0)
	for _, at := range []Time{5, 15, 25} {
		e.At(at, func() { fired++ })
	}
	p := newRecordingPacer(10, func() uint64 { return fired })
	e.SetPacer(p)
	e.Run()
	// Head 5 triggers nothing (5 < 10); head 15 triggers D=10 with one
	// event fired; head 25 triggers D=20 with two. After the queue
	// empties, pacing stops — a pacer is driven by events, not wall time.
	want := []cut{{10, 15, 1}, {20, 25, 2}}
	if len(p.cuts) != len(want) {
		t.Fatalf("cuts %+v, want %+v", p.cuts, want)
	}
	for i := range want {
		if p.cuts[i] != want[i] {
			t.Fatalf("cut %d = %+v, want %+v", i, p.cuts[i], want[i])
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d", fired)
	}
}

// TestEnginePacerQuietGap: a long event gap yields one flat sample per
// interval — the pace loop fires every deadline <= head in one cut.
func TestEnginePacerQuietGap(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.At(100, func() {})
	p := newRecordingPacer(10, nil)
	e.SetPacer(p)
	e.Run()
	if len(p.cuts) != 10 {
		t.Fatalf("%d cuts, want 10 (deadlines 10..100)", len(p.cuts))
	}
	for i, c := range p.cuts {
		if c.deadline != Time(10*(i+1)) || c.head != 100 {
			t.Fatalf("cut %d = %+v", i, c)
		}
	}
}

// TestEnginePacerDoesNotPerturb: an armed pacer changes nothing the
// simulation can observe — clock, fired count, event order.
func TestEnginePacerDoesNotPerturb(t *testing.T) {
	run := func(p Pacer) ([]firing, uint64, Time) {
		e := NewEngine()
		if p != nil {
			e.SetPacer(p)
		}
		log := driveRandomWorkload(e, 42)
		return log, e.Fired(), e.Now()
	}
	plain, pf, pn := run(nil)
	paced, qf, qn := run(newRecordingPacer(7, nil))
	if pf != qf || pn != qn || len(plain) != len(paced) {
		t.Fatalf("paced run diverged: fired %d/%d now %v/%v len %d/%d",
			pf, qf, pn, qn, len(plain), len(paced))
	}
	for i := range plain {
		if plain[i] != paced[i] {
			t.Fatalf("firing %d diverged: %+v vs %+v", i, plain[i], paced[i])
		}
	}
}

// TestEnginePacerLivelockGuard: a pacer that refuses to advance its
// deadline gets exactly one Pace per cut instead of hanging the engine.
func TestEnginePacerLivelockGuard(t *testing.T) {
	e := NewEngine()
	for _, at := range []Time{5, 15, 25} {
		e.At(at, func() {})
	}
	p := newRecordingPacer(10, nil)
	p.stuck = true
	e.SetPacer(p)
	e.Run() // must terminate
	// One bail-out call per cut where the deadline was due (heads 15, 25).
	if len(p.cuts) != 2 {
		t.Fatalf("%d cuts, want 2", len(p.cuts))
	}
	for _, c := range p.cuts {
		if c.deadline != 10 {
			t.Fatalf("stuck pacer advanced: %+v", c)
		}
	}
}
