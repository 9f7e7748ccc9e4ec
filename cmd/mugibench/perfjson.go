package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mugi"
	"mugi/internal/accuracy"
	"mugi/internal/core"
	"mugi/internal/dist"
	"mugi/internal/infer"
	"mugi/internal/nonlinear"
	"mugi/internal/runner"
	"mugi/internal/tensor"
)

// The perf-trajectory emitter: -json times the functional-stack hot paths
// (VLP GEMM, decode step, accuracy-proxy loss, simulator pass, serving
// runs, capacity search, fleet plan, MinuteServe scoring) in-process and
// writes ns/op + allocs/op as JSON,
// the cross-PR baseline future optimisation PRs regress against (the
// external-sort tradition of publishing a measured perf trajectory rather
// than a claim). Kernels marked zeroAlloc gate the exit status: any
// steady-state allocation on a zero-allocation path is a regression and
// fails the run. Kernels with a maxAllocs bound gate scale-dependent
// paths the same way (a serving run may allocate per distinct step shape,
// but never per request again), which is what the CI smoke job checks.

// benchRecord is one benchmark line of the trajectory file.
type benchRecord struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchEntry is one PR's measurements in the trajectory history.
type benchEntry struct {
	Label      string        `json:"label"`
	Go         string        `json:"go"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// benchFile is the BENCH.json schema: the whole cross-PR perf trajectory
// in one file, oldest history entry first. A -json run loads the
// committed file, drops any stale entry for the current label, and
// appends its own measurements — so the file accumulates the trajectory
// instead of scattering it across BENCH_PR*.json snapshots.
type benchFile struct {
	Schema  string       `json:"schema"`
	History []benchEntry `json:"history"`
}

const (
	// benchSchema versions the consolidated trajectory file.
	benchSchema = "mugi-perf-trajectory/3"
	// benchLabel names the entry this build's -json run writes.
	benchLabel = "pr16"
)

// fallbackHistory seeds the trajectory when the committed BENCH.json is
// absent or predates the consolidated schema: the PR 9 measurements,
// carried in-binary so a fresh checkout still writes a self-contained
// file with at least one baseline to compare against.
var fallbackHistory = []benchEntry{{
	Label: "pr9",
	Go:    "go1.24.0",
	Benchmarks: []benchRecord{
		{Name: "vlp_gemm_8x512x512", Iters: 72, NsPerOp: 1449296.7916666667, AllocsPerOp: 0},
		{Name: "decode_step", Iters: 512, NsPerOp: 248791.291015625, AllocsPerOp: 0},
		{Name: "proxy_loss", Iters: 14, NsPerOp: 7843396.357142857, AllocsPerOp: 0},
		{Name: "simulate_decode", Iters: 2000, NsPerOp: 987.5005, AllocsPerOp: 4},
		{Name: "serve_poisson_cold", Iters: 212, NsPerOp: 484402.7405660377, AllocsPerOp: 374},
		{Name: "serve_poisson_warm", Iters: 305, NsPerOp: 355467.7901639344, AllocsPerOp: 2},
		{Name: "serve_1m_requests", Iters: 1, NsPerOp: 10374287192, AllocsPerOp: 6},
		{Name: "capacity_search", Iters: 11, NsPerOp: 8639739.090909092, AllocsPerOp: 1589},
		{Name: "autoscale_week", Iters: 1, NsPerOp: 2301606551, AllocsPerOp: 6223},
		{Name: "fleet_faulty_week", Iters: 1, NsPerOp: 2242027980, AllocsPerOp: 1901},
		{Name: "flashcrowd_week", Iters: 1, NsPerOp: 1151909492, AllocsPerOp: 2250},
		{Name: "fleet_plan", Iters: 2, NsPerOp: 42152914.5, AllocsPerOp: 3620},
	},
}}

// loadHistory reads the committed trajectory from path, returning the
// in-binary fallback when the file is missing or predates the
// consolidated schema. Any stale entry for the current label is dropped
// so re-runs replace their own measurements instead of stacking them.
func loadHistory(path string) []benchEntry {
	data, err := os.ReadFile(path)
	if err != nil {
		return fallbackHistory
	}
	var file benchFile
	if err := json.Unmarshal(data, &file); err != nil || file.Schema != benchSchema {
		return fallbackHistory
	}
	history := make([]benchEntry, 0, len(file.History))
	for _, e := range file.History {
		if e.Label != benchLabel {
			history = append(history, e)
		}
	}
	return history
}

// perfKernel is one measurable hot path.
type perfKernel struct {
	name string
	op   func()
	// zeroAlloc marks paths asserted allocation-free after warmup; a
	// nonzero allocs/op fails the emitter.
	zeroAlloc bool
	// maxAllocs, when nonzero, is the allocation budget of a path that
	// legitimately allocates a bounded amount (step-table growth, stream
	// setup) but must never regress to per-request allocation; exceeding
	// it fails the emitter.
	maxAllocs float64
	// maxAllocRuns caps the AllocsPerRun sample for kernels with bounded
	// repeat budgets (the decode step is limited by MaxSeq) or very long
	// runs (the million-request trace). 0 = default.
	maxAllocRuns int
	// fixedIters pins the auto-calibrated iteration count for kernels
	// whose per-op cost depends on accumulated state (the decode step
	// grows its KV context) or whose single run is already seconds long,
	// keeping ns/op comparable across machines.
	fixedIters int
}

// measure times the kernel and samples its steady-state allocation rate.
// iters <= 0 auto-calibrates to roughly 100 ms of work.
func measure(k perfKernel, iters int) benchRecord {
	k.op() // warm caches, scratch buffers, and lazy tables
	if iters <= 0 && k.fixedIters > 0 {
		iters = k.fixedIters
	}
	if iters <= 0 {
		start := time.Now()
		k.op()
		per := time.Since(start)
		if per <= 0 {
			per = time.Nanosecond
		}
		iters = int(100 * time.Millisecond / per)
		if iters < 1 {
			iters = 1
		}
		if iters > 2000 {
			iters = 2000
		}
	}
	allocRuns := iters
	if allocRuns > 64 {
		allocRuns = 64
	}
	if k.maxAllocRuns > 0 && allocRuns > k.maxAllocRuns {
		allocRuns = k.maxAllocRuns
	}
	allocs := testing.AllocsPerRun(allocRuns, k.op)
	start := time.Now()
	for i := 0; i < iters; i++ {
		k.op()
	}
	elapsed := time.Since(start)
	return benchRecord{
		Name:        k.name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: allocs,
	}
}

// perfKernels builds the trajectory suite.
func perfKernels() []perfKernel {
	// VLP GEMM: the BenchmarkVLPGEMM shape (8×512 BF16 queries against
	// 512×512 INT4 weights) on the scratch-reusing path.
	gemmA := tensor.NewMatrix(8, 512)
	gemmW := tensor.NewMatrix(512, 512)
	seedFill(gemmA.Data, 1)
	seedFill(gemmW.Data, 0.3)
	gemmQ := core.QuantizeWeights(gemmW, 4, 128)
	gemmOut := tensor.NewMatrix(8, 512)
	gemmCfg := core.GEMMConfig{Rows: 128, Cols: 8, Mapping: core.MappingMugi}
	var gemmScratch core.GEMMScratch

	// Decode step: the full functional stack (VLP GEMM + KVQ cache + GQA
	// + VLP softmax/activation/RoPE). MaxSeq bounds the KV window; with
	// fixedIters equal to one full window the metric is the mean step
	// cost over a 512-token decode, independent of machine speed.
	decCfg := infer.Config{
		Layers: 2, Heads: 4, KVHeads: 2, Dim: 32, FFN: 64,
		Vocab: 64, MaxSeq: 512, RoPE: true,
		Activation: nonlinear.SiLU, Seed: 99,
	}
	dec, err := infer.New(decCfg)
	if err != nil {
		panic(err)
	}
	decOps := infer.VLPOps(decCfg.Activation)
	decTok := 0
	// Pre-decode to mid-window depth so the allocation sample measures a
	// deep KV context (allocation bugs can hide at shallow contexts where
	// reserved scratch still covers the growing attention operands).
	for dec.Pos() < decCfg.MaxSeq/2 {
		if _, err := dec.Step(decTok%decCfg.Vocab, decOps); err != nil {
			panic(err)
		}
		decTok++
	}

	// Accuracy proxy: one exact-stack Loss evaluation, the unit of every
	// Fig. 6/7 sweep cell.
	proxy := accuracy.NewProxy(accuracy.DefaultProxy(dist.Llama2))
	proxyImpl := accuracy.Uniform(accuracy.ExactImpl(proxy.Config().Activation))

	// Simulator pass: the unit of the Fig. 12-17 sweeps.
	simW := mugi.Llama2_70B_GQA.DecodeOps(8, 4096)
	simD := mugi.NewMugi(256)

	// Serving: one Poisson run, matching BenchmarkServeSingleNode.
	trace, err := mugi.NewTrace(mugi.TraceConfig{
		Kind: mugi.TracePoisson, Rate: 0.05, Requests: 48, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	serveCfg := mugi.ServeConfig{Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.SingleNode}

	// Million-request streaming run: the sweep-scale configuration (lazy
	// trace, histogram percentiles, bucketed step table) on a 4x4
	// mesh that keeps up with the offered rate.
	serve1mCfg := mugi.ServeConfig{Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.NewMesh(4, 4)}
	serve1mTrace := mugi.TraceConfig{Kind: mugi.TracePoisson, Rate: 0.5, Requests: 1_000_000, Seed: 1}

	// Capacity search: one full bracketing+bisection search of the
	// single-node cell.
	capCfg := mugi.ServeConfig{Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.SingleNode}
	capSpec := mugi.CapacitySpec{
		Trace: mugi.TraceConfig{Kind: mugi.TracePoisson, Requests: 48, Seed: 1},
		Iters: 4,
	}

	// MinuteServe entry: one full benchmark scoring — SLO-bound capacity
	// search, the scored minute, TCO pricing, artifact signing and
	// verification — of the reference submission.
	msEntry, err := mugi.ParseMinuteServeEntry("mugi:4x4")
	if err != nil {
		panic(err)
	}

	// Fleet plan: the full planner over a 2-design x 2-mesh x {1,2}
	// grid under JSQ routing — router, per-replica schedulers, histogram
	// merges, TCO pricing, and both frontiers.
	fleetSpec := mugi.FleetPlanSpec{
		Base: mugi.ServeConfig{Model: mugi.Llama2_7B},
		Cells: mugi.FleetGrid(
			[]mugi.Design{mugi.NewMugi(256), mugi.NewSystolicArray(16, true)},
			[]mugi.Mesh{mugi.SingleNode, mugi.NewMesh(2, 2)},
			[]int{1, 2},
		),
		Policy: mugi.FleetJSQ,
		Trace:  mugi.TraceConfig{Kind: mugi.TracePoisson, Requests: 16, Seed: 1},
		SLO:    mugi.FleetSLO{TTFTP99: 60, LatencyP99: 300},
		Iters:  3,
	}

	// Faulty fleet week: a three-replica JSQ fleet serving a week of
	// diurnal arrivals under seeded fault injection — ~200 crashes, each
	// orphaning in-flight work the router fails over — through the
	// remove-and-re-dispatch fixed point.
	faultyFleetCfg := mugi.FleetConfig{
		Replica:       mugi.ServeConfig{Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.NewMesh(2, 2)},
		Replicas:      3,
		Policy:        mugi.FleetJSQ,
		Faults:        mugi.FaultSpec{MTBF: 7200, MTTR: 600, Seed: 7},
		MaxRedispatch: 2,
	}
	faultyFleetTrace := mugi.TraceConfig{
		Kind: mugi.TraceDiurnal, Rate: 0.02, Requests: int(0.02 * 7 * 86400),
		Seed: 42, Period: 86400,
	}

	// Flash-crowd week: a tenanted two-replica JSQ fleet serving a week
	// of flash-crowd arrivals (4x surges over a calm baseline) through
	// the full overload stack — per-class admission, strict-priority
	// dispatch, brownout ladder, retrying clients.
	crowdCfg := mugi.FleetConfig{
		Replica: mugi.ServeConfig{
			Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.NewMesh(2, 2),
			MaxQueue: 12, MaxBatch: 8,
			Admission:   &mugi.AdmissionSpec{},
			Brownout:    &mugi.BrownoutSpec{Steps: mugi.DefaultBrownoutSteps(), HighWater: 8, Dwell: 10},
			ClientRetry: mugi.ClientRetrySpec{Backoff: 15, MaxAttempts: 2},
		},
		Replicas: 2,
		Policy:   mugi.FleetJSQ,
	}
	crowdTrace := mugi.TraceConfig{
		Kind: mugi.TraceFlashcrowd, Rate: 0.02, Requests: int(0.02 * 7 * 86400),
		Seed: 42, SurgeFactor: 4, SurgeSpan: 600, SurgePeriod: 7200,
		Tenants: []mugi.TenantSpec{
			{Class: mugi.TenantInteractive, Share: 0.3},
			{Class: mugi.TenantStandard, Share: 0.4},
			{Class: mugi.TenantBestEffort, Share: 0.3},
		},
	}

	// Autoscale week: the full static-vs-dynamic comparison — always-on
	// JSQ fleet, then the online controller (power states, boot lag,
	// DVFS) — over a simulated week of diurnal arrivals.
	autoCfg := mugi.AutoscaleConfig{
		Replica:     mugi.ServeConfig{Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.NewMesh(4, 4)},
		MaxReplicas: 4,
	}
	autoTrace := mugi.TraceConfig{
		Kind: mugi.TraceDiurnal, Rate: 0.02, Requests: int(0.02 * 7 * 86400),
		Seed: 42, Period: 86400,
	}

	return []perfKernel{
		{
			name:      "vlp_gemm_8x512x512",
			zeroAlloc: true,
			op: func() {
				core.MultiplyInto(gemmCfg, gemmA, gemmQ, gemmOut, &gemmScratch)
			},
		},
		{
			name:      "decode_step",
			zeroAlloc: true,
			// Keep the alloc sample inside the pre-decoded deep window so
			// it measures steady-state context-growing steps.
			maxAllocRuns: 32,
			fixedIters:   512,
			op: func() {
				if dec.Pos() >= decCfg.MaxSeq {
					dec.Reset()
				}
				if _, err := dec.Step(decTok%decCfg.Vocab, decOps); err != nil {
					panic(err)
				}
				decTok++
			},
		},
		{
			name:      "proxy_loss",
			zeroAlloc: true,
			op: func() {
				proxy.Loss(proxyImpl)
			},
		},
		{
			name: "simulate_decode",
			// sim.Simulate's class breakdowns are fixed arrays, so a pass
			// allocates nothing.
			zeroAlloc: true,
			op: func() {
				mugi.Simulate(mugi.SimParams{Design: simD}, simW)
			},
		},
		{
			name: "serve_poisson_cold",
			// Runs allocate only per step-table growth (bounded by distinct
			// quantized step shapes), never per request: >= 10x under the
			// PR 3 baseline of 12,643, CI-gated.
			maxAllocs: 1264,
			op: func() {
				if _, err := mugi.Serve(serveCfg, trace); err != nil {
					panic(err)
				}
			},
		},
		{
			name: "serve_poisson_warm",
			// Steady state: pooled scheduler + memoized workloads + the
			// cleared step table leave only the stream wrapper and
			// closure setup.
			maxAllocs: 64,
			op: func() {
				if _, err := mugi.Serve(serveCfg, trace); err != nil {
					panic(err)
				}
			},
		},
		{
			name: "serve_1m_requests",
			// One full run is seconds of work; a single iteration and a
			// single allocation sample keep the emitter usable while still
			// gating scale-independence: the 200k budget is 5x under
			// one-alloc-per-request (the measured run allocates single
			// digits; the headroom absorbs GC noise).
			fixedIters:   1,
			maxAllocRuns: 1,
			maxAllocs:    200_000,
			op: func() {
				src, err := mugi.NewTraceStream(serve1mTrace)
				if err != nil {
					panic(err)
				}
				rep, err := mugi.ServeStream(serve1mCfg, src)
				if err != nil {
					panic(err)
				}
				if rep.Completed != serve1mTrace.Requests {
					panic(fmt.Sprintf("serve_1m_requests completed %d", rep.Completed))
				}
			},
		},
		{
			name: "capacity_search",
			// The search allocates per probe (stream, report) and per
			// price-list entry, never per scheduler step: the budget is
			// ~4x the measured run (63 allocs), far under one per step.
			maxAllocs: 240,
			op: func() {
				if _, err := mugi.FindCapacity(capCfg, capSpec); err != nil {
					panic(err)
				}
			},
		},
		{
			name: "autoscale_week",
			// One comparison is seconds of work (12k requests on both
			// sides plus calibration probes). The controller allocates per
			// run (prescan counts, windows, reports) and per step shape,
			// never per tick or per request: the budget sits well under
			// one alloc per request (~370 measured for 12k requests).
			fixedIters:   1,
			maxAllocRuns: 1,
			maxAllocs:    8_000,
			op: func() {
				cmp, err := mugi.CompareAutoscale(autoCfg, autoTrace)
				if err != nil {
					panic(err)
				}
				if cmp.Dynamic.Completed != autoTrace.Requests {
					panic(fmt.Sprintf("autoscale_week completed %d", cmp.Dynamic.Completed))
				}
			},
		},
		{
			name: "fleet_faulty_week",
			// One run is seconds of work (12k requests, ~200 crashes, every
			// crash-dirtied replica re-run to the failover fixed point). The
			// router allocates per replica re-run and per step shape, never
			// per request or per scheduler step: the budget sits well under
			// one alloc per request.
			fixedIters:   1,
			maxAllocRuns: 1,
			maxAllocs:    8_000,
			op: func() {
				src, err := mugi.NewTraceStream(faultyFleetTrace)
				if err != nil {
					panic(err)
				}
				rep, err := mugi.RunFleet(faultyFleetCfg, src)
				if err != nil {
					panic(err)
				}
				f := rep.Fleet
				if f.Completed+f.Shed != f.Requests {
					panic(fmt.Sprintf("fleet_faulty_week leaked requests: %d+%d != %d",
						f.Completed, f.Shed, f.Requests))
				}
				if f.Crashes == 0 {
					panic("fleet_faulty_week injected no crashes")
				}
			},
		},
		{
			name: "flashcrowd_week",
			// One run is a week of surging arrivals (12k requests, ~7k
			// surge-phase extras) through the full overload stack.
			// Admission, brownout and retry state are per-replica and
			// per-run, never per request: the budget sits well under one
			// alloc per original request.
			fixedIters:   1,
			maxAllocRuns: 1,
			maxAllocs:    10_000,
			op: func() {
				src, err := mugi.NewTraceStream(crowdTrace)
				if err != nil {
					panic(err)
				}
				rep, err := mugi.RunFleet(crowdCfg, src)
				if err != nil {
					panic(err)
				}
				f := rep.Fleet
				if f.Completed+f.Shed+f.Orphaned != f.Requests {
					panic(fmt.Sprintf("flashcrowd_week leaked requests: %d+%d+%d != %d",
						f.Completed, f.Shed, f.Orphaned, f.Requests))
				}
				if !f.OverloadOn || !f.TenantsOn {
					panic("flashcrowd_week ran without the overload stack")
				}
			},
		},
		{
			name: "minuteserve_entry",
			// One scored entry is a capacity search (12 probes of 32
			// requests) plus the scored minute, then signing and verifying
			// the artifact. The scorer allocates per probe and per price-list
			// entry, never per request or scheduler step: the budget sits
			// well over the measured run (~190 allocs).
			fixedIters:   1,
			maxAllocRuns: 1,
			maxAllocs:    5_000,
			op: func() {
				rep, err := mugi.MinuteServe(msEntry)
				if err != nil {
					panic(err)
				}
				if !rep.Sustainable {
					panic("minuteserve_entry scored unsustainable")
				}
				if err := mugi.VerifyReport(rep.Encode()); err != nil {
					panic(err)
				}
			},
		},
		{
			name: "fleet_plan",
			// The planner allocates per probe (routed schedules, reports,
			// frontier copies) but never per scheduler step: the budget is
			// ~2x the measured run (1,269 allocs) so a regression to
			// per-step allocation (thousands of steps per probe) trips it.
			maxAllocs: 2_500,
			op: func() {
				results := mugi.PlanFleet(fleetSpec)
				for _, r := range results {
					if r.Err != nil {
						panic(r.Err)
					}
				}
				if len(mugi.FleetFrontier(results, mugi.FrontierByDollar)) == 0 {
					panic("fleet_plan produced an empty frontier")
				}
			},
		},
	}
}

// seedFill deterministically fills data with a small LCG stream scaled by
// std, so the emitter needs no math/rand state shared with the benchmarks.
func seedFill(data []float32, std float64) {
	state := uint64(0x9E3779B97F4A7C15)
	for i := range data {
		state = state*6364136223846793005 + 1442695040888963407
		// Map the top bits onto [-1, 1).
		u := float64(int64(state>>11)) / float64(1<<52)
		data[i] = float32((u - 1) * std)
	}
}

// runPerfJSON executes the trajectory suite and writes the JSON file:
// the committed history plus this run's measurements under benchLabel.
// It returns an error if any zero-allocation path allocated.
func runPerfJSON(path string, iters, parallel int) error {
	runner.SetParallelism(parallel)
	entry := benchEntry{Label: benchLabel, Go: runtime.Version()}
	var regressions []string
	for _, k := range perfKernels() {
		rec := measure(k, iters)
		entry.Benchmarks = append(entry.Benchmarks, rec)
		status := ""
		if (k.zeroAlloc && rec.AllocsPerOp > 0) ||
			(k.maxAllocs > 0 && rec.AllocsPerOp > k.maxAllocs) {
			status = "  ALLOC REGRESSION"
			regressions = append(regressions, k.name)
		}
		fmt.Fprintf(os.Stderr, "%-22s %12.0f ns/op %8.0f allocs/op%s\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, status)
	}
	file := benchFile{Schema: benchSchema, History: append(loadHistory(path), entry)}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	if len(regressions) > 0 {
		return fmt.Errorf("zero-allocation hot paths allocated: %v", regressions)
	}
	return nil
}
