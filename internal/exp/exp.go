// Package exp is a deterministic parallel sweep runner for experiment
// harnesses. Independent sweep points (hop distances, transfer sizes,
// merge windows, generations, paging policies) fan out across a pool of
// worker goroutines, each owning private state — in this repository, its
// own Machine and sim.Engine — and results are collected in input order,
// so the output is bit-identical to running the points sequentially.
//
// The determinism contract, which DESIGN.md §6 documents and the
// differential tests in internal/core enforce:
//
//   - each worker owns all mutable state it touches (one engine per
//     worker; nothing simulated is shared between workers);
//   - each point's result is a pure function of its index and the
//     worker-private state, which the point function must leave (or
//     reset) in a fresh-equivalent condition;
//   - results land at out[i], never appended in completion order.
//
// Under that contract, which points run on which worker — and in which
// wall-clock order — cannot be observed in the results.
package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: GOMAXPROCS, the number of goroutines the runtime will
// actually execute in parallel.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Map runs fn over the indices 0..n-1 on a pool of workers goroutines
// and returns the n results in index order. Each worker calls newState
// once and passes that private state to every fn call it executes, so
// expensive per-worker resources (a Machine) amortize across the points
// the worker happens to claim. workers <= 0 selects DefaultWorkers();
// workers == 1 (or n <= 1) runs inline on the calling goroutine — the
// sequential path the parallel output must be bit-identical to.
//
// Points are claimed dynamically (an atomic counter), which balances
// uneven point costs; the contract above makes the claim order
// unobservable in the results.
func Map[S, R any](workers, n int, newState func() S, fn func(s S, i int) R) []R {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	out := make([]R, n)
	if workers == 1 {
		s := newState()
		for i := 0; i < n; i++ {
			out[i] = fn(s, i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(s, i)
			}
		}()
	}
	wg.Wait()
	return out
}
