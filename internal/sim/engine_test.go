package sim

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1000*Nanosecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder broken")
	}
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Fatalf("Microseconds = %v", got)
	}
	if got := (2 * Microsecond).String(); got != "2.000us" {
		t.Fatalf("String = %q", got)
	}
	if got := (3 * Second).String(); got != "3.000s" {
		t.Fatalf("String = %q", got)
	}
	if got := Time(500).String(); got != "500ps" {
		t.Fatalf("String = %q", got)
	}
}

func TestPerByteRoundsUp(t *testing.T) {
	// 33 MB/s: one byte takes ceil(1e12/33e6) = 30304 ps... exactly
	// 1e12/33e6 = 30303.03; rounded up 30304.
	if got := PerByte(33_000_000, 1); got != 30304 {
		t.Fatalf("PerByte(33MB/s,1) = %d", got)
	}
	// A rate that divides evenly must not round.
	if got := PerByte(1_000_000_000, 2); got != 2000 {
		t.Fatalf("PerByte(1GB/s,2) = %d", got)
	}
	if PerByte(0, 10) != 0 || PerByte(100, 0) != 0 {
		t.Fatal("degenerate inputs should cost zero")
	}
}

func TestPerByteNeverBeatsRate(t *testing.T) {
	f := func(rate int64, n int) bool {
		if rate <= 0 {
			rate = -rate + 1
		}
		rate = rate%1_000_000_000 + 1
		if n < 0 {
			n = -n
		}
		n = n % 100_000
		d := PerByte(rate, n)
		// d seconds * rate >= n bytes (channel never exceeds its rating).
		return int64(d)*rate >= int64(n)*int64(Second) || n == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPerByteWideTransfersDoNotOverflow(t *testing.T) {
	// n*Second overflows int64 past ~9.2 MB; the 128-bit widening must
	// keep large transfers exact. 16 MiB at 33 MB/s:
	// ceil(16777216e12 / 33e6) = 508400484849 ps (~0.508 s).
	if got := PerByte(33_000_000, 16<<20); got != 508400484849 {
		t.Fatalf("PerByte(33MB/s, 16MiB) = %d", got)
	}
	// 1 GiB at 70 MB/s: ceil(1073741824e12 / 7e7) = 15339168914286 ps.
	if got := PerByte(70_000_000, 1<<30); got != 15339168914286 {
		t.Fatalf("PerByte(70MB/s, 1GiB) = %d", got)
	}
	// Verify against big.Int across a sweep of sizes straddling the old
	// overflow threshold.
	for _, n := range []int{9_000_000, 9_223_373, 10_000_000, 100_000_000, 1 << 31} {
		for _, rate := range []int64{1, 33_000_000, 70_000_000, 1_000_000_000} {
			want := new(big.Int).Mul(big.NewInt(int64(n)), big.NewInt(int64(Second)))
			q, r := new(big.Int).QuoRem(want, big.NewInt(rate), new(big.Int))
			if r.Sign() != 0 {
				q.Add(q, big.NewInt(1))
			}
			if !q.IsInt64() || q.Int64() > int64(Forever) {
				continue
			}
			if got := PerByte(rate, n); int64(got) != q.Int64() {
				t.Fatalf("PerByte(%d, %d) = %d, want %v", rate, n, got, q)
			}
		}
	}
	// Results past the representable range clamp to Forever instead of
	// going negative.
	if got := PerByte(1, 1<<40); got != Forever {
		t.Fatalf("PerByte(1, 2^40) = %d, want Forever", got)
	}
	if got := PerByte(1, math.MaxInt32); got < 0 || got > Forever {
		t.Fatalf("PerByte produced out-of-range duration %d", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	// Same-time events fire in scheduling order.
	e.At(20, func() { got = append(got, 4) })
	e.Run()
	want := []int{1, 2, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v", e.Now())
	}
	if e.Fired() != 4 {
		t.Fatalf("fired = %d", e.Fired())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past event")
		}
	}()
	e.At(50, func() {})
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired %d, want 2 (boundary inclusive)", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v", e.Now())
	}
	e.Run()
	if fired != 3 {
		t.Fatal("remaining event lost")
	}
}

// RunBound is the run-ahead limit of the batched CPU and the cache's
// store runs: the window edge inside RunUntil, Forever outside it.
func TestRunBoundTracksWindow(t *testing.T) {
	e := NewEngine()
	if b := e.RunBound(); b != Forever {
		t.Fatalf("outside a run: RunBound() = %v, want Forever", b)
	}
	var inside Time
	e.At(1*Microsecond, func() { inside = e.RunBound() })
	e.At(10*Microsecond, func() {})
	e.RunUntil(4 * Microsecond)
	if inside != 4*Microsecond {
		t.Fatalf("inside RunUntil(4us): RunBound() = %v, want 4us", inside)
	}
	if b := e.RunBound(); b != Forever {
		t.Fatalf("after the run: RunBound() = %v, want Forever", b)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 5 {
			e.After(10, schedule)
		}
	}
	e.After(0, schedule)
	e.Run()
	if depth != 5 {
		t.Fatalf("depth = %d", depth)
	}
	if e.Now() != 40 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestAdvanceGuardsPendingEvents(t *testing.T) {
	e := NewEngine()
	e.At(50, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Advance skipped an event without panicking")
		}
	}()
	e.Advance(100)
}

func TestAdvanceToIsIdempotentBackward(t *testing.T) {
	e := NewEngine()
	e.Advance(100)
	e.AdvanceTo(40) // in the past: no-op
	if e.Now() != 100 {
		t.Fatalf("clock = %v", e.Now())
	}
	e.AdvanceTo(120)
	if e.Now() != 120 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestDrainLimit(t *testing.T) {
	e := NewEngine()
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("Drain did not catch the livelock")
		}
	}()
	e.Drain(100)
}

func TestRunWhile(t *testing.T) {
	e := NewEngine()
	x := 0
	for i := 1; i <= 10; i++ {
		i := i
		e.At(Time(i), func() { x = i })
	}
	ok := e.RunWhile(func() bool { return x < 5 })
	if !ok || x != 5 {
		t.Fatalf("RunWhile stopped at x=%d ok=%v", x, ok)
	}
	// Condition never satisfied: runs dry, reports false.
	if e.RunWhile(func() bool { return x < 100 }) {
		t.Fatal("RunWhile should report false when events run out")
	}
}

func TestRandomizedOrderingMatchesSort(t *testing.T) {
	// Property: events fire in nondecreasing time order regardless of
	// insertion order.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		n := 200
		times := make([]Time, n)
		var fired []Time
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(10_000))
			times[i] = at
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range times {
			if fired[i] != times[i] {
				t.Fatalf("trial %d: fired[%d]=%v want %v", trial, i, fired[i], times[i])
			}
		}
	}
}
