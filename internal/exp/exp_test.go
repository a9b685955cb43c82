package exp

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Results must land in input order regardless of worker count or claim
// order, with every index computed exactly once.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		got := Map(workers, 100, func() int { return 0 }, func(_ int, i int) int {
			return i * i
		})
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// Driving the pool with far more points than workers (the shape the
// -race CI smoke exercises) must create exactly `workers` states and
// hand every point a state created by the pool.
func TestMapOversubscribed(t *testing.T) {
	const workers, points = 4, 97
	var states atomic.Int32
	type state struct{ calls int }
	var total atomic.Int32
	Map(workers, points, func() *state {
		states.Add(1)
		return &state{}
	}, func(s *state, i int) int {
		s.calls++ // worker-private: never racy
		total.Add(1)
		return i
	})
	if got := states.Load(); got != workers {
		t.Fatalf("created %d states, want %d", got, workers)
	}
	if got := total.Load(); got != points {
		t.Fatalf("fn ran %d times, want %d", got, points)
	}
}

func TestMapEdgeCases(t *testing.T) {
	if got := Map(4, 0, func() int { return 0 }, func(int, int) int { return 1 }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	// workers > n must clamp, not spin up idle goroutines that race on
	// an empty range.
	got := Map(16, 2, func() int { return 0 }, func(_ int, i int) int { return i })
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("workers>n: got %v", got)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) || got < 1 {
		t.Fatalf("DefaultWorkers() = %d", got)
	}
}
