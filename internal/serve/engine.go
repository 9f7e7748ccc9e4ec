package serve

import (
	"fmt"
	"math"
	"sync"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/overload"
	"mugi/internal/sim"
)

// reqState tracks one admitted request in the engine's pooled arena.
type reqState struct {
	req         Request
	generated   int     // output tokens produced so far
	firstAt     float64 // completion time of the prefill (first token)
	deferred    bool    // already counted as a KV-budget deferral
	clientTries int     // client retry attempts already spent (overload)
}

// stepShape keys the workload memo: with CtxBucket quantization the set
// of distinct shapes is small and reused across steps, runs, replicas
// and engines, so the hot loop never rebuilds an operator list.
type stepShape struct {
	model  model.Config
	decode bool
	batch  int
	ctx    int
}

// workloads is the process-wide step-shape memo, bounded by the distinct
// shapes any run has priced. A plain map under a mutex keeps the key
// unboxed, and one home means no engine, pooled or fresh, ever rebuilds a
// shape another already built.
var workloads = struct {
	sync.Mutex
	m map[stepShape]model.Workload
}{m: make(map[stepShape]model.Workload)}

// workload memoizes operator-list construction per quantized step shape.
//
//mugi:noalloc
func workload(k stepShape) model.Workload {
	workloads.Lock()
	w, ok := workloads.m[k]
	if !ok {
		if k.decode {
			w = k.model.DecodeOps(k.batch, k.ctx)
		} else {
			w = k.model.PrefillOps(k.batch, k.ctx)
		}
		workloads.m[k] = w
	}
	workloads.Unlock()
	return w
}

// stepKey identifies one step within a run: the engine's Config fixes
// every other input of its cost. dvfs indexes Engine.dvfs.
type stepKey struct {
	batch, ctx int32
	dvfs       uint16
	decode     bool
}

// stepCost is the part of a sim.Result a round consumes, kept small so
// the step table stores it inline.
type stepCost struct {
	seconds, energy, leakage float64
	nocLimited               bool
}

// priceKey identifies one step shape within a capacity search: the
// search's Config fixes every other input of its cost.
type priceKey struct {
	dvfs       arch.DVFSPoint
	batch, ctx int32
	decode     bool
}

// prices is the price list one capacity search shares across its probes
// (see Config.SharePrices). Fleet replicas run concurrently, so the mutex
// guards the map.
type prices struct {
	// params (Config.hardware) and model are what the list prices; a
	// Config with other ones never reads it.
	params sim.Params
	model  model.Config
	mu     sync.Mutex
	m      map[priceKey]*price
	// spare is the unused tail of the last block of entries, allocated
	// 64 at a time.
	spare []price
}

// price is one entry of a price list. Its first reader prices it outside
// the list's lock; concurrent readers of the same key wait on the Once, so
// each shape is priced exactly once per search. ok stays false if the
// pricing panicked, so a waiter never reads a zero cost as a real one.
type price struct {
	once sync.Once
	cost stepCost
	ok   bool
}

// hardware is c.Params() without its DVFS point: the inputs a price list
// is made for, since its keys carry the point.
func (c *Config) hardware() sim.Params {
	p := c.Params()
	p.DVFS = arch.DVFSPoint{}
	return p
}

// dropForeignPrices detaches a price list made for another model or
// hardware.
func (c *Config) dropForeignPrices() {
	if c.prices != nil && (c.prices.params != c.hardware() || c.prices.model != c.Model) {
		c.prices = nil
	}
}

// stepCost prices one step of shape (decode, batch, ctx) at DVFS point d
// through c.Simulate; p is c.Params(). With a price list attached the
// shape is priced at most once per search and read from the list after
// that.
func (c *Config) stepCost(p sim.Params, d arch.DVFSPoint, decode bool, batch, ctx int) stepCost {
	s := c.prices
	if s == nil {
		return c.simulate(p, d, decode, batch, ctx)
	}
	k := priceKey{d, int32(batch), int32(ctx), decode}
	s.mu.Lock()
	e := s.m[k]
	if e == nil {
		if len(s.spare) == 0 {
			s.spare = make([]price, 64)
		}
		e, s.spare = &s.spare[0], s.spare[1:]
		s.m[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.cost = c.simulate(p, d, decode, batch, ctx)
		e.ok = true
	})
	if !e.ok {
		// The first pricing panicked: price directly, so the panic
		// reaches this caller too.
		return c.simulate(p, d, decode, batch, ctx)
	}
	return e.cost
}

// simulate calls c.Simulate on one step shape.
func (c *Config) simulate(p sim.Params, d arch.DVFSPoint, decode bool, batch, ctx int) stepCost {
	p.DVFS = d
	res := c.Simulate(p, workload(stepShape{c.Model, decode, batch, ctx}))
	return stepCost{res.Seconds, res.DynamicEnergy, res.LeakageWatts, res.NoCLimited}
}

// timedQueue holds deferred deliveries — failed dispatches awaiting
// re-delivery, shed clients awaiting re-arrival — in readyAt order, kept
// by insertion: they are rare events, so the shift is bounded by the
// pending count.
type timedQueue[T any] struct {
	items []timed[T]
	head  int
}

type timed[T any] struct {
	v       T
	readyAt float64
}

func (q *timedQueue[T]) push(v T, readyAt float64) {
	q.items = append(q.items, timed[T]{v, readyAt})
	for i := len(q.items) - 1; i > q.head && q.items[i].readyAt < q.items[i-1].readyAt; i-- {
		q.items[i], q.items[i-1] = q.items[i-1], q.items[i]
	}
}

// next is the earliest pending readyAt, +Inf when none is pending.
func (q *timedQueue[T]) next() float64 {
	if q.head == len(q.items) {
		return math.Inf(1)
	}
	return q.items[q.head].readyAt
}

// pop removes and returns the earliest entry.
func (q *timedQueue[T]) pop() timed[T] {
	q.head++
	return q.items[q.head-1]
}

// Batch is one replica's running decode batch: the arena indices of its
// resident requests and the KV bytes they reserve. The zero value is an
// empty batch.
type Batch struct {
	active  []int32
	kvInUse int64
}

// Len is the number of resident requests.
func (b *Batch) Len() int { return len(b.active) }

// Reset empties the batch, keeping its capacity, for reuse with a reset
// Engine.
func (b *Batch) Reset() {
	b.active = b.active[:0]
	b.kvInUse = 0
}

// Engine is the continuous-batching core: the request arena and its
// freelist, the FIFO admission queue, request validation, the latency
// populations, and the Orca-style scheduler round (Round). RunStream
// drives one engine with one Batch; internal/autoscale's controller
// drives one engine — one shared queue — with a Batch per replica. Reset
// configures an engine for a run; steady-state rounds allocate nothing.
type Engine struct {
	cfg      Config     // defaulted
	params   sim.Params // cfg.Params(); a round's DVFS point replaces DVFS
	perToken int64      // KV bytes per resident token

	// steps is the run's step-cost table; dvfs lists the run's DVFS
	// points in first-use order.
	steps map[stepKey]stepCost
	dvfs  []arch.DVFSPoint

	states []reqState // arena; batches and the queue hold indices into it
	free   []int32    // freed arena slots for reuse
	queue  []int32    // FIFO of queued (arrived, unadmitted) requests
	qhead  int        // queue's consumed prefix
	batch  Batch      // RunStream's single replica batch

	ttft, tpot, lat Hist
	// cttft/clat are the per-class latency populations, maintained (and
	// reset) only on tenant-accounted runs so untagged runs pay nothing.
	cttft, clat [overload.NumClasses]Hist

	rep      Report  // counters and energy accumulated by rounds
	batchSum int     // decode-batch occupancy summed over decode steps
	leakage  float64 // the last step's static watts

	// RunStream-only state, inert for callers that leave the
	// corresponding Config fields zero: per-class accounting, the
	// brownout ladder's live bucket scale, transient dispatch errors
	// and their re-delivery queue.
	classed     bool
	bucketScale int
	faulty      bool
	retry       RetryPolicy
	retries     timedQueue[int32]
}

var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// Reset validates cfg (zero fields take their defaults) and readies the
// engine for a run of it: empty arena, queue, batch and latency
// populations, and a zero accumulated report.
func (e *Engine) Reset(cfg Config) error {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	cfg.dropForeignPrices()
	e.cfg, e.params, e.perToken = cfg, cfg.Params(), KVBytesPerToken(cfg.Model)
	if e.steps == nil {
		e.steps = make(map[stepKey]stepCost)
	}
	clear(e.steps)
	e.dvfs = e.dvfs[:0]
	e.states, e.free, e.queue, e.qhead = e.states[:0], e.free[:0], e.queue[:0], 0
	e.batch.Reset()
	e.ttft.Reset()
	e.tpot.Reset()
	e.lat.Reset()
	e.rep, e.batchSum, e.leakage = Report{}, 0, 0
	e.classed, e.bucketScale = false, 1
	e.faulty = cfg.Faults.Active()
	e.retry = cfg.Retry.withDefaults()
	e.retries = timedQueue[int32]{items: e.retries.items[:0]}
	return nil
}

// alloc places a request in the arena and returns its index (amortized
// arena growth via append is not a heap escape; steady state reuses the
// freelist).
//
//mugi:noalloc
func (e *Engine) alloc(r Request) int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		e.states[idx] = reqState{req: r}
		return idx
	}
	e.states = append(e.states, reqState{req: r})
	return int32(len(e.states) - 1)
}

// release returns an arena slot to the freelist.
func (e *Engine) release(idx int32) { e.free = append(e.free, idx) }

// Queued is the current queue depth.
func (e *Engine) Queued() int { return len(e.queue) - e.qhead }

// qpush/qpop/qpeek implement the FIFO over the reusable backing slice.
// The consumed prefix is reclaimed whenever it dominates the slice (not
// just when the queue drains), so the backing array stays O(backlog) even
// on sustained-overload streams whose queue never empties — amortized
// O(1) per operation.
//
//mugi:noalloc
func (e *Engine) qpush(idx int32) {
	if e.qhead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qhead = 0
	} else if e.qhead > 32 && e.qhead > len(e.queue)/2 {
		n := copy(e.queue, e.queue[e.qhead:])
		e.queue = e.queue[:n]
		e.qhead = 0
	}
	e.queue = append(e.queue, idx)
}

func (e *Engine) qpeek() int32 { return e.queue[e.qhead] }

func (e *Engine) qpop() int32 {
	idx := e.queue[e.qhead]
	e.qhead++
	return idx
}

// qpushPri inserts idx keeping the queue ordered by class priority,
// stable within a class (FIFO among equals). Overload mode only:
// strict-priority dispatch is what makes an evicted slot worth anything
// to the class that claimed it — eviction frees space, this hands the
// freed space to the front of the line.
//
//mugi:noalloc
func (e *Engine) qpushPri(idx int32) {
	e.qpush(idx)
	p := e.states[idx].req.Class.Priority()
	for i := len(e.queue) - 1; i > e.qhead; i-- {
		if e.states[e.queue[i-1]].req.Class.Priority() <= p {
			break
		}
		e.queue[i], e.queue[i-1] = e.queue[i-1], e.queue[i]
	}
}

// lowerQueued reports whether some queued request ranks strictly below
// class c — an eviction victim exists.
func (e *Engine) lowerQueued(c overload.Class) bool {
	p := c.Priority()
	for _, idx := range e.queue[e.qhead:] {
		if e.states[idx].req.Class.Priority() > p {
			return true
		}
	}
	return false
}

// evictVictim removes and returns the arena index of the youngest
// queued request with the lowest priority strictly below class c, or -1
// when no victim exists. "Youngest lowest-priority first" sacrifices the
// least-invested, least-important work.
func (e *Engine) evictVictim(c overload.Class) int32 {
	p := c.Priority()
	best, bestP := -1, p
	for i := len(e.queue) - 1; i >= e.qhead; i-- {
		if q := e.states[e.queue[i]].req.Class.Priority(); q > bestP {
			best, bestP = i, q
		}
	}
	if best < 0 {
		return -1
	}
	idx := e.queue[best]
	copy(e.queue[best:], e.queue[best+1:])
	e.queue = e.queue[:len(e.queue)-1]
	return idx
}

// Push queues an arrival at the tail of the FIFO.
func (e *Engine) Push(r Request) {
	e.tally(r, 1)
	e.qpush(e.alloc(r))
}

// need is a request's full KV reservation (prompt plus output).
func (e *Engine) need(r Request) int64 { return e.perToken * int64(r.Prompt+r.Output) }

// Validate rejects a request the engine can never serve.
func (e *Engine) Validate(r Request) error {
	if r.Prompt < 1 || r.Output < 1 {
		return fmt.Errorf("serve: request %d has empty prompt or output", r.ID)
	}
	// The deepest decode step attends over prompt+output-1 cached
	// tokens; a model can't serve a request past its context window.
	m := e.cfg.Model
	if m.MaxSeq > 0 && r.Prompt+r.Output-1 > m.MaxSeq {
		return fmt.Errorf("serve: request %d spans %d tokens, model %q holds %d — use a shorter length profile",
			r.ID, r.Prompt+r.Output, m.Name, m.MaxSeq)
	}
	if r.Prompt+r.Output > math.MaxInt32 {
		return fmt.Errorf("serve: request %d spans %d tokens, past the step table's int32 context", r.ID, r.Prompt+r.Output)
	}
	if e.need(r) > e.cfg.KVBudgetBytes {
		return fmt.Errorf("serve: request %d needs %d KV bytes, budget %d — it can never be scheduled",
			r.ID, e.need(r), e.cfg.KVBudgetBytes)
	}
	return nil
}

// tally keeps the token totals (overall and per class) counting only
// work the run actually delivers (or will deliver after a local retry):
// admissions add theirs (sign +1), hand-offs and sheds return theirs
// (sign -1).
func (e *Engine) tally(r Request, sign int64) {
	p, o := sign*int64(r.Prompt), sign*int64(r.Output)
	e.rep.PromptTokens += p
	e.rep.OutputTokens += o
	if e.classed {
		e.rep.Classes[r.Class].PromptTokens += p
		e.rep.Classes[r.Class].OutputTokens += o
	}
}

// retryOrShed disposes of one failed dispatch: once the request's
// re-dispatch budget is spent it is shed with accounting and its slot
// freed; otherwise it restarts from scratch with its attempt counter
// advanced, and the caller re-delivers it.
func (e *Engine) retryOrShed(idx int32) (req Request, retried bool) {
	req = e.states[idx].req
	if req.Retries >= e.retry.MaxRedispatch {
		e.rep.Shed++
		if e.classed {
			e.rep.Classes[req.Class].Shed++
		}
		e.tally(req, -1)
		e.release(idx)
		return req, false
	}
	req.Retries++
	e.rep.Redispatched++
	e.states[idx] = reqState{req: req}
	return req, true
}

// Orphan returns a crashed batch's requests to the tail of the queue in
// batch order, each restarted with its attempt counter advanced, or shed
// once its re-dispatch budget (Config.Retry.MaxRedispatch) is spent. The
// batch is left empty.
func (e *Engine) Orphan(b *Batch) {
	for _, idx := range b.active {
		if _, ok := e.retryOrShed(idx); ok {
			e.qpush(idx)
		}
	}
	b.Reset()
}

// Settled counts requests with a final disposition: completed, shed, or
// handed back to the caller.
func (e *Engine) Settled() int { return e.rep.Completed + e.rep.Shed + e.rep.Orphaned }

// complete retires a request that produced its last token at now.
func (e *Engine) complete(b *Batch, r *reqState, now float64) {
	b.kvInUse -= e.need(r.req)
	e.lat.Add(now - r.req.Arrival)
	e.ttft.Add(r.firstAt - r.req.Arrival)
	if r.req.Output > 1 {
		e.tpot.Add((now - r.firstAt) / float64(r.req.Output-1))
	}
	if e.cfg.Observe != nil {
		e.cfg.Observe(r.req, r.firstAt, now)
	}
	e.rep.Completed++
	if e.classed {
		e.rep.Classes[r.req.Class].Completed++
		e.cttft[r.req.Class].Add(r.firstAt - r.req.Arrival)
		e.clat[r.req.Class].Add(now - r.req.Arrival)
	}
}

// step prices step k, accumulates its energy, and returns the time it
// ends when started at t on a replica slowed by slow. Only a key's first
// step in a run prices it (through the search's price list, if any);
// later ones read the run's lock-free step table.
func (e *Engine) step(k stepKey, t, slow float64) float64 {
	c, ok := e.steps[k]
	if !ok {
		c = e.cfg.stepCost(e.params, e.dvfs[k.dvfs], k.decode, int(k.batch), int(k.ctx))
		e.steps[k] = c
	}
	e.rep.DynamicEnergy += c.energy
	e.leakage = c.leakage
	if c.nocLimited {
		e.rep.NoCLimitedSteps++
	}
	// A straggler stretches wall time; multiplying by exactly 1.0 is
	// bit-exact, so healthy replicas keep their golden outputs.
	return t + c.seconds*slow
}

// dvfsSlot returns p's index in e.dvfs, adding it on first use. A run
// sees a handful of points, so the scan is short.
func (e *Engine) dvfsSlot(p arch.DVFSPoint) uint16 {
	for i, q := range e.dvfs {
		if q == p {
			return uint16(i)
		}
	}
	e.dvfs = append(e.dvfs, p)
	return uint16(len(e.dvfs) - 1)
}

// Round runs one scheduler round of batch b starting at simulated time t
// and returns the time it ends. With admit set it first prefills queued
// requests in FIFO order while a batch slot and the KV budget allow (one
// prefill pass per request, which also yields its first output token);
// then it runs one decode step for the whole batch at the longest
// bucketed context (padded batching). Every step is priced at the
// Config's params at DVFS point dvfs, its latency stretched by slow;
// completed requests free their KV reservation at once.
//
//mugi:noalloc
func (e *Engine) Round(b *Batch, dvfs arch.DVFSPoint, t, slow float64, admit bool) float64 {
	d := e.dvfsSlot(dvfs)
	for admit && e.Queued() > 0 && len(b.active) < e.cfg.MaxBatch {
		idx := e.qpeek()
		r := &e.states[idx]
		if e.faulty && e.cfg.Faults.Spec().Transient(r.req.ID, r.req.Retries) {
			// Injected transient dispatch error: the attempt counter
			// advances (so the next draw is fresh) and re-delivery costs
			// the detection delay, or the request is shed once its
			// budget is spent.
			e.qpop()
			e.rep.TransientErrors++
			if _, ok := e.retryOrShed(idx); ok {
				e.retries.push(idx, t+e.retry.Delay)
			}
			continue
		}
		if b.kvInUse+e.need(r.req) > e.cfg.KVBudgetBytes {
			if !r.deferred {
				r.deferred = true
				e.rep.KVQueuedRequests++
			}
			break
		}
		e.qpop()
		b.kvInUse += e.need(r.req)
		if b.kvInUse > e.rep.PeakKVBytes {
			e.rep.PeakKVBytes = b.kvInUse
		}
		t = e.step(stepKey{1, int32(e.bucket(r.req.Prompt)), d, false}, t, slow)
		e.rep.PrefillSteps++
		r.firstAt = t
		r.generated = 1
		if r.generated == r.req.Output {
			e.complete(b, r, t)
			e.release(idx)
		} else {
			b.active = append(b.active, idx)
		}
	}
	if len(b.active) == 0 {
		return t
	}
	maxCtx := 0
	for _, idx := range b.active {
		r := &e.states[idx]
		if ctx := r.req.Prompt + r.generated; ctx > maxCtx {
			maxCtx = ctx
		}
	}
	t = e.step(stepKey{int32(len(b.active)), int32(e.bucket(maxCtx)), d, true}, t, slow)
	e.rep.DecodeSteps++
	e.batchSum += len(b.active)
	remaining := b.active[:0]
	for _, idx := range b.active {
		r := &e.states[idx]
		r.generated++
		if r.generated >= r.req.Output {
			e.complete(b, r, t)
			e.release(idx)
		} else {
			remaining = append(remaining, idx)
		}
	}
	b.active = remaining
	return t
}

// bucket quantizes a step shape like Config.BucketCtx, but through the
// brownout ladder's live bucket scale; at scale 1 (no brownout) the
// result is bit-identical to BucketCtx.
func (e *Engine) bucket(n int) int {
	return bucketCtx(n, e.cfg.CtxBucket*e.bucketScale, e.cfg.Model.MaxSeq)
}

// Summary finalizes and returns the accumulated report: completions,
// sheds and re-dispatches, step counts, MeanBatch, dynamic energy, and
// the TTFT, TPOT and latency percentiles.
func (e *Engine) Summary() Report {
	if e.rep.DecodeSteps > 0 {
		e.rep.MeanBatch = float64(e.batchSum) / float64(e.rep.DecodeSteps)
	}
	e.rep.TTFT = e.ttft.Percentiles()
	e.rep.TPOT = e.tpot.Percentiles()
	e.rep.Latency = e.lat.Percentiles()
	return e.rep
}
