// Package runner is the concurrent experiment/sweep engine. Regenerating
// the paper's evaluation is an embarrassingly parallel sweep over
// (design × mesh × model × batch × sequence) points. The engine supplies
// two pieces:
//
//   - a bounded worker pool (Map) that fans independent work items across
//     at most Parallelism() goroutines, with the caller always
//     participating so nested Map calls degrade to serial execution
//     instead of deadlocking;
//   - a counted simulator call (Simulate): sim.Simulate prices a pass in
//     about a microsecond without allocating, so it is called directly,
//     and the count says how much simulation a run asked for.
//
// Determinism guarantee: Map assigns work by index and callers write
// results into index-addressed slots, and sim.Simulate is a pure function
// of its inputs — so every rendering that reads the computed values in
// index order produces byte-identical output at any parallelism level,
// including 1.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mugi/internal/model"
	"mugi/internal/sim"
)

// Stats reports one engine's simulator call count. Every call computes a
// fresh result, so every call is a miss; Hits and Evictions stay for
// callers that read all three.
type Stats struct {
	// Hits is always 0: no result is reused.
	Hits uint64
	// Misses counts Simulate calls since the last ResetCache.
	Misses uint64
	// Evictions is always 0: nothing is stored.
	Evictions uint64
}

// Engine combines the worker pool and the simulator call count.
type Engine struct {
	mu      sync.Mutex
	workers int
	// helpers holds workers-1 tokens; Map borrows helper goroutines from
	// it non-blockingly, so the total concurrency across nested calls
	// stays bounded by the configured parallelism.
	helpers chan struct{}
	calls   atomic.Uint64
}

// New builds an engine with the given parallelism; n <= 0 selects
// runtime.GOMAXPROCS(0).
func New(n int) *Engine {
	e := &Engine{}
	e.SetParallelism(n)
	return e
}

// SetParallelism resizes the worker pool; n <= 0 selects
// runtime.GOMAXPROCS(0). It must not be called concurrently with Map.
func (e *Engine) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.mu.Lock()
	e.workers = n
	e.helpers = make(chan struct{}, n-1)
	e.mu.Unlock()
}

// Parallelism returns the configured worker count.
func (e *Engine) Parallelism() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workers
}

// acquireHelpers borrows up to want helper tokens without blocking and
// returns the channel they came from plus how many it got. Nested Map
// calls find the pool drained and run on the caller alone — serial, never
// deadlocked. The channel is returned so release always drains the same
// pool generation even if SetParallelism swapped it mid-flight.
func (e *Engine) acquireHelpers(want int) (chan struct{}, int) {
	e.mu.Lock()
	sem := e.helpers
	e.mu.Unlock()
	got := 0
	for got < want {
		select {
		case sem <- struct{}{}:
			got++
		default:
			return sem, got
		}
	}
	return sem, got
}

// Map runs f(0..n-1) across the pool and returns when every index has been
// processed. The caller participates, so Map(n, f) with parallelism 1 is
// exactly the serial loop. A panic in any f is re-raised on the caller
// after the remaining workers drain.
func (e *Engine) Map(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	sem, helpers := e.acquireHelpers(n - 1)
	defer func() {
		for i := 0; i < helpers; i++ {
			<-sem
		}
	}()

	var next atomic.Int64
	var panicked atomic.Value
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, panicValue{r})
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if p, ok := panicked.Load().(panicValue); ok {
		panic(p.v)
	}
}

// panicValue wraps a recovered value so atomic.Value accepts any concrete
// type (including nil-interface-ish values) consistently.
type panicValue struct{ v any }

// Simulate is sim.Simulate, counted.
//
//mugi:noalloc
func (e *Engine) Simulate(p sim.Params, w model.Workload) sim.Result {
	e.calls.Add(1)
	return sim.Simulate(p, w)
}

// ResetCache zeroes the call count.
func (e *Engine) ResetCache() { e.calls.Store(0) }

// CacheStats returns the call count as misses.
func (e *Engine) CacheStats() Stats { return Stats{Misses: e.calls.Load()} }

// ---- Default engine ----

// defaultEngine is the process-wide engine the experiment generators and
// accuracy sweeps submit through.
var defaultEngine = New(0)

// SetParallelism resizes the default engine's pool.
func SetParallelism(n int) { defaultEngine.SetParallelism(n) }

// Parallelism returns the default engine's worker count.
func Parallelism() int { return defaultEngine.Parallelism() }

// Map fans f(0..n-1) across the default pool.
func Map(n int, f func(i int)) { defaultEngine.Map(n, f) }

// Simulate is the default engine's counted simulator call.
func Simulate(p sim.Params, w model.Workload) sim.Result {
	return defaultEngine.Simulate(p, w)
}

// ResetCache zeroes the default engine's call count.
func ResetCache() { defaultEngine.ResetCache() }

// CacheStats returns the default engine's call count as misses.
func CacheStats() Stats { return defaultEngine.CacheStats() }
