package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mugi/internal/model"
	"mugi/internal/runner"
	"mugi/internal/serve"
	"mugi/internal/sim"
)

// epoch anchors every timestamp the benchmark takes: nanoseconds on the
// monotonic clock since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer's public entry point, made by the
// benchmark's own wrappers. Parent indexes the enclosing span in the
// same pass (-1 for a pass's root); Op is the pass index, shared by every
// span of that pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// coverage accumulates the union of possibly overlapping child intervals:
// time during which at least one child call is in flight. Two workers
// pricing steps at once count that stretch of wall time once, so a
// parent's self time (its span minus coverage) never goes negative.
type coverage struct {
	clock   func() int64
	mu      sync.Mutex
	depth   int
	since   int64
	covered int64
}

// enter marks a child call starting and returns its start time.
func (c *coverage) enter() int64 {
	c.mu.Lock()
	t := c.clock()
	if c.depth == 0 {
		c.since = t
	}
	c.depth++
	c.mu.Unlock()
	return t
}

// exit marks a child call ending and returns its end time.
func (c *coverage) exit() int64 {
	c.mu.Lock()
	t := c.clock()
	c.depth--
	if c.depth == 0 {
		c.covered += t - c.since
	}
	c.mu.Unlock()
	return t
}

// total returns the covered nanoseconds so far; call it with no child in
// flight.
func (c *coverage) total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.covered
}

// tracer is the benchmark's instrumentation of one workload: a counting
// step-cost wrapper that, when on, also times every call and tells cache
// hits from misses, a timing Stream wrapper, and the coarse spans of
// each pass. Per-step calls are kept as aggregates, not spans: a stream
// pass makes hundreds of thousands of them.
type tracer struct {
	on bool

	steps         atomic.Int64
	hits, misses  atomic.Int64
	hitNs, missNs atomic.Int64
	nextCalls     atomic.Int64
	nextNs        atomic.Int64
	stepCover     coverage
	spans         []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, stepCover: coverage{clock: now}}
}

// step is the serve.StepFunc the workloads inject: runner.Simulate, the
// default step cost, counted and (when tracing) timed.
func (t *tracer) step(p sim.Params, w model.Workload) sim.Result {
	t.steps.Add(1)
	if !t.on {
		return runner.Simulate(p, w)
	}
	// Another worker's miss between the two reads marks a hit as a miss;
	// misses are rare, so the split stays close under two workers.
	m0 := runner.CacheStats().Misses
	start := t.stepCover.enter()
	res := runner.Simulate(p, w)
	end := t.stepCover.exit()
	if runner.CacheStats().Misses != m0 {
		t.misses.Add(1)
		t.missNs.Add(end - start)
	} else {
		t.hits.Add(1)
		t.hitNs.Add(end - start)
	}
	return res
}

// stream wraps a trace generator so each Next is timed when tracing; with
// tracing off it returns src unchanged.
func (t *tracer) stream(src serve.Stream) serve.Stream {
	if !t.on {
		return src
	}
	return &timedStream{Stream: src, t: t}
}

type timedStream struct {
	serve.Stream
	t *tracer
}

// Next times the wrapped generator's Next.
func (s *timedStream) Next() (serve.Request, bool) {
	start := now()
	r, ok := s.Stream.Next()
	s.t.nextNs.Add(now() - start)
	s.t.nextCalls.Add(1)
	return r, ok
}

// stepStats is a snapshot of the step-cost aggregates of one pass.
type stepStats struct {
	calls, hits, misses, hitNs, missNs, covered int64
}

// stats snapshots the step-cost aggregates; call it with no step in
// flight.
func (t *tracer) stats() stepStats {
	return stepStats{
		calls: t.steps.Load(), hits: t.hits.Load(), misses: t.misses.Load(),
		hitNs: t.hitNs.Load(), missNs: t.missNs.Load(), covered: t.stepCover.total(),
	}
}

// reset zeroes the per-pass aggregates before a pass.
func (t *tracer) reset() {
	for _, c := range []*atomic.Int64{&t.steps, &t.hits, &t.misses, &t.hitNs, &t.missNs, &t.nextCalls, &t.nextNs} {
		c.Store(0)
	}
	t.stepCover = coverage{clock: now}
}

// begin opens a span under parent (-1 for none) and returns its index.
// Spans are opened and closed by the benchmark's own goroutine only.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: now(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i and returns its duration in nanoseconds.
func (t *tracer) end(i int) int64 {
	t.spans[i].End = now()
	return t.spans[i].dur()
}

// write saves every recorded span and the run's per-layer metrics as one
// JSON file.
func (t *tracer) write(path string, layers map[string]metric) error {
	data, err := json.Marshal(struct {
		Spans  []span            `json:"spans"`
		Layers map[string]metric `json:"per_layer"`
	}{t.spans, layers})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
