package main

import (
	"fmt"
	"strings"

	"mugi/internal/arch"
	"mugi/internal/autoscale"
	"mugi/internal/experiments"
	"mugi/internal/faults"
	"mugi/internal/fleet"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// workload is one fixed amount of offline work. setup builds its inputs
// from the seed once; the returned instance then runs any number of
// identical passes.
type workload struct {
	name string
	// workers sizes the runner pool for the whole run.
	workers int
	// params describes the inputs for the result record.
	params func(seed int64) map[string]any
	setup  func(seed int64, tr *tracer) (*instance, error)
}

// instance is a set-up workload. run performs one pass through the
// system's public entry points and is the only part timed; check then
// inspects what that pass produced, outside the timed window.
type instance struct {
	run   func(op, parent int)
	check func(wallNs int64) outcome
}

// outcome is one checked pass.
type outcome struct {
	// ops counts the checked operations of the pass; failed counts those
	// that returned an error or broke an output invariant.
	ops, failed int
	// problems describes each failure.
	problems []string
	// report is the deterministic rendering of everything the pass
	// produced; its SHA-256 is the pass's output digest.
	report []byte
	// steps counts step-cost lookups the pass priced.
	steps int64
	// layers holds per-layer metrics the workload reads from its own
	// reports and spans; they override the generic tracer-derived ones.
	layers map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checkConservation records a broken Completed+Shed+Orphaned == Requests
// invariant.
func (o *outcome) checkConservation(what string, rep serve.Report) {
	if rep.Completed+rep.Shed+rep.Orphaned != rep.Requests {
		o.fail("%s: completed %d + shed %d + orphaned %d != requests %d",
			what, rep.Completed, rep.Shed, rep.Orphaned, rep.Requests)
	}
}

// Workload parameters. Each is a fixed amount of work per pass; the
// arrivals inside it are open-loop in simulated time.
const (
	streamRequests = 40_000
	streamRate     = 0.5

	weekRate   = 0.02
	weekPeriod = 86_400.0
	weekMTBF   = 7_200.0
	weekMTTR   = 600.0
)

var weekRequests = int(weekRate * 7 * weekPeriod)

// paperIDs are the registry artifacts of the paper workload, in registry
// order.
var paperIDs = []string{"fig4", "fig6", "fig7", "fig8", "fig11", "fig12", "tab3",
	"fig13", "fig14", "fig15", "fig16", "fig17", "ablations", "moe", "online"}

var workloads = []workload{
	{name: "stream", workers: 1, params: streamParams, setup: setupStream},
	{name: "plan", workers: 2, params: planParams, setup: setupPlan},
	{name: "week", workers: 1, params: weekParams, setup: setupWeek},
	{name: "paper", workers: 2, params: paperParams, setup: setupPaper},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ---- stream: one long Poisson chat trace on one replica ----

func streamTrace(seed int64) serve.TraceConfig {
	return serve.TraceConfig{Kind: serve.Poisson, Rate: streamRate, Requests: streamRequests, Seed: seed}
}

func streamParams(seed int64) map[string]any {
	return map[string]any{
		"model": model.Llama2_7B.Name, "design": arch.Mugi(256).Name, "mesh": "4x4",
		"trace": "poisson", "rate_req_s": streamRate, "requests": streamRequests, "seed": seed,
		"entry": "serve.RunStream over a lazy serve.NewStream",
	}
}

func setupStream(seed int64, tr *tracer) (*instance, error) {
	cfg := serve.Config{
		Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4),
		Simulate: tr.step,
	}
	tc := streamTrace(seed)
	if _, err := serve.NewStream(tc); err != nil {
		return nil, err
	}
	var (
		rep     serve.Report
		err     error
		runSpan int
	)
	inst := &instance{
		run: func(op, parent int) {
			src, serr := serve.NewStream(tc)
			if serr != nil {
				rep, err = serve.Report{}, serr
				return
			}
			runSpan = tr.begin("serve.RunStream", parent, op)
			rep, err = serve.RunStream(cfg, tr.stream(src))
			tr.end(runSpan)
		},
	}
	inst.check = func(wallNs int64) outcome {
		o := outcome{ops: 1, steps: tr.steps.Load()}
		if err != nil {
			o.fail("stream: %v", err)
			return o
		}
		o.checkConservation("stream", rep)
		if rep.Requests != tc.Requests {
			o.fail("stream: report has %d requests, trace %d", rep.Requests, tc.Requests)
		}
		o.report = []byte(fmt.Sprintf("%+v", rep))
		steps := float64(rep.PrefillSteps + rep.DecodeSteps)
		next := float64(tr.nextNs.Load())
		self := float64(tr.spans[runSpan].dur()-tr.stepCover.total()) - next
		o.layers = map[string]float64{
			"serve.steps.prefill":          float64(rep.PrefillSteps),
			"serve.steps.decode":           float64(rep.DecodeSteps),
			"serve.mean_batch":             rep.MeanBatch,
			"serve.peak_queue":             float64(rep.PeakQueue),
			"serve.sched.self_ns_per_step": self / steps,
			"serve.sched.share":            self / float64(wallNs),
			"serve.trace.next_ns":          ratio(next, float64(tr.nextCalls.Load())),
			"serve.trace.share":            next / float64(wallNs),
		}
		return o
	}
	return inst, nil
}

// ---- plan: the fleet planner over a 27-cell grid ----

// planReps is how many times a pass plans the grid. Each cell of each
// repetition is planned with its own probe-trace seed: every probe of one
// plan replays the same few requests, so a plan's work swings with its
// seed, and 54 independent seeds per pass keep the work per pass close to
// the same for every run seed.
const planReps = 2

// planGrid is the 27-cell sweep: three designs × three meshes × {1, 2, 4}
// replicas.
func planGrid() []fleet.Cell {
	return fleet.Grid(
		[]arch.Design{arch.Mugi(256), arch.SystolicArray(16, true), arch.Carat(256)},
		[]noc.Mesh{noc.Single, noc.NewMesh(2, 2), noc.NewMesh(4, 4)},
		[]int{1, 2, 4})
}

// planSpecs returns one single-cell plan per (repetition, cell), with
// probe seeds seed*n .. seed*n+n-1 for n specs.
func planSpecs(seed int64, tr *tracer) []fleet.PlanSpec {
	grid := planGrid()
	specs := make([]fleet.PlanSpec, 0, planReps*len(grid))
	for range planReps {
		for _, c := range grid {
			specs = append(specs, fleet.PlanSpec{
				Base:   serve.Config{Model: model.Llama2_7B, Simulate: tr.step},
				Cells:  []fleet.Cell{c},
				Policy: fleet.JSQ,
				SLO:    fleet.SLO{TTFTP99: 60, LatencyP99: 300},
			})
		}
	}
	for k := range specs {
		specs[k].Trace = serve.TraceConfig{Kind: serve.Poisson, Seed: seed*int64(len(specs)) + int64(k)}
	}
	return specs
}

func planParams(seed int64) map[string]any {
	n := int64(planReps * len(planGrid()))
	return map[string]any{
		"model": model.Llama2_7B.Name, "designs": "Mugi(256), FIGNA systolic 16x16, Carat(256)",
		"meshes": "1x1,2x2,4x4", "replicas": "1,2,4", "policy": "jsq", "grid_repetitions": planReps,
		"probe_trace": "poisson", "probe_requests": fleet.DefaultPlanRequests,
		"probe_seeds": fmt.Sprintf("%d..%d, one per (repetition, cell)", seed*n, seed*n+n-1), "seed": seed,
		"slo_ttft_p99_s": 60, "slo_latency_p99_s": 300,
		"entry": "fleet.Plan per cell, fanned over runner.Map as fleet.Plan fans cells; fleet.Frontier on both axes per repetition",
	}
}

func setupPlan(seed int64, tr *tracer) (*instance, error) {
	specs := planSpecs(seed, tr)
	cells := len(specs) / planReps
	results := make([]fleet.CellResult, len(specs))
	frontiers := make([][2][]fleet.CellResult, planReps)
	var planSpan int
	inst := &instance{
		run: func(op, parent int) {
			planSpan = tr.begin("fleet.Plan", parent, op)
			runner.Map(len(specs), func(i int) {
				results[i] = fleet.Plan(specs[i])[0]
			})
			for r := range frontiers {
				rep := results[r*cells : (r+1)*cells]
				frontiers[r] = [2][]fleet.CellResult{fleet.Frontier(rep, fleet.ByDollar), fleet.Frontier(rep, fleet.ByWatt)}
			}
			tr.end(planSpan)
		},
	}
	inst.check = func(wallNs int64) outcome {
		o := outcome{ops: len(results) + len(frontiers), steps: tr.steps.Load()}
		var b strings.Builder
		probes, frontier := 0, 0
		for k, r := range results {
			probes += r.Probes
			cell := fmt.Sprintf("plan: probe seed %d: cell %s %s x%d", specs[k].Trace.Seed, r.Design, r.Mesh, r.Replicas)
			if r.Err != nil {
				o.fail("%s: %v", cell, r.Err)
				continue
			}
			if r.Capacity > 0 {
				o.checkConservation(cell, r.At.Fleet)
			}
			fmt.Fprintf(&b, "%+v\n", r)
		}
		for r, f := range frontiers {
			if len(f[0]) == 0 || len(f[1]) == 0 {
				o.fail("plan: repetition %d: empty frontier (perf/$ %d cells, perf/W %d cells)", r, len(f[0]), len(f[1]))
			}
			for _, axis := range f {
				for _, c := range axis {
					fmt.Fprintf(&b, "frontier %d %s %s x%d\n", r, c.Design, c.Mesh, c.Replicas)
				}
			}
			frontier += len(f[0])
		}
		o.report = []byte(b.String())
		planNs := float64(tr.spans[planSpan].dur())
		o.layers = map[string]float64{
			"fleet.plan.cells":        float64(len(results)),
			"fleet.plan.probes":       float64(probes),
			"fleet.plan.probe_ms":     ratio(planNs/1e6, float64(probes)),
			"fleet.plan.self_share":   (planNs - float64(tr.stepCover.total())) / float64(wallNs),
			"fleet.plan.frontier_len": float64(frontier) / float64(len(frontiers)),
		}
		return o
	}
	return inst, nil
}

// ---- week: the autoscaler over a diurnal week with seeded faults ----

func weekConfig(seed int64, tr *tracer) (autoscale.Config, serve.TraceConfig) {
	cfg := autoscale.Config{
		Replica:     serve.Config{Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4), Simulate: tr.step},
		MaxReplicas: 4,
		Faults:      faults.Spec{MTBF: weekMTBF, MTTR: weekMTTR, Seed: seed},
	}
	tc := serve.TraceConfig{Kind: serve.Diurnal, Rate: weekRate, Requests: weekRequests, Seed: seed, Period: weekPeriod}
	return cfg, tc
}

func weekParams(seed int64) map[string]any {
	return map[string]any{
		"model": model.Llama2_7B.Name, "design": arch.Mugi(256).Name, "mesh": "4x4",
		"max_replicas": 4, "policy": "target-util", "dvfs": "default ladder",
		"trace": "diurnal", "rate_req_s": weekRate, "period_s": weekPeriod, "requests": weekRequests,
		"mtbf_s": weekMTBF, "mttr_s": weekMTTR, "seed": seed,
		"entry": "autoscale.Run",
	}
}

func setupWeek(seed int64, tr *tracer) (*instance, error) {
	cfg, tc := weekConfig(seed, tr)
	if _, err := serve.NewStream(tc); err != nil {
		return nil, err
	}
	var (
		rep     autoscale.Report
		err     error
		runSpan int
	)
	inst := &instance{
		run: func(op, parent int) {
			runSpan = tr.begin("autoscale.Run", parent, op)
			rep, err = autoscale.Run(cfg, tc)
			tr.end(runSpan)
		},
	}
	inst.check = func(wallNs int64) outcome {
		o := outcome{ops: 1, steps: tr.steps.Load()}
		if err != nil {
			o.fail("week: %v", err)
			return o
		}
		if rep.Completed+rep.Shed != rep.Requests || rep.Requests != tc.Requests {
			o.fail("week: completed %d + shed %d != requests %d (trace %d)",
				rep.Completed, rep.Shed, rep.Requests, tc.Requests)
		}
		// The windows hang off a pointer; render them by value so the
		// digest covers their content, not their address.
		flat := rep
		flat.Windows = nil
		windows := ""
		if rep.Windows != nil {
			windows = fmt.Sprintf("%+v", *rep.Windows)
		}
		o.report = []byte(fmt.Sprintf("%+v\nwindows %s", flat, windows))
		steps := float64(rep.PrefillSteps + rep.DecodeSteps)
		self := float64(tr.spans[runSpan].dur() - tr.stepCover.total())
		o.layers = map[string]float64{
			"autoscale.self_ns_per_step": self / steps,
			"autoscale.self_share":       self / float64(wallNs),
			"autoscale.ticks":            float64(rep.Ticks),
			"autoscale.dvfs_shifts":      float64(rep.DVFSShifts),
			"autoscale.crashes":          float64(rep.Crashes),
		}
		return o
	}
	return inst, nil
}

// ---- paper: regenerate the paper's artifacts from the registry ----

func paperParams(int64) map[string]any {
	return map[string]any{
		"artifacts": strings.Join(paperIDs, ","),
		"seed":      "unused: every artifact's seeds are fixed inside the experiments registry",
		"entry":     "experiments.ByID(id).Run() for each artifact, in order",
	}
}

func setupPaper(_ int64, tr *tracer) (*instance, error) {
	entries := make([]experiments.Entry, len(paperIDs))
	for i, id := range paperIDs {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		entries[i] = e
	}
	var (
		reports    = make([]string, len(entries))
		spans      = make([]int, len(entries))
		cacheAfter runner.Stats
	)
	inst := &instance{
		run: func(op, parent int) {
			for i, e := range entries {
				spans[i] = tr.begin("experiments."+e.ID, parent, op)
				reports[i] = e.Run().String()
				tr.end(spans[i])
			}
			cacheAfter = runner.CacheStats()
		},
	}
	inst.check = func(int64) outcome {
		// The pass started from runner.ResetCache, so the counters are
		// this pass's lookups.
		o := outcome{ops: len(entries), steps: int64(cacheAfter.Hits + cacheAfter.Misses)}
		o.layers = map[string]float64{
			"runner.step.calls":  float64(cacheAfter.Hits + cacheAfter.Misses),
			"runner.step.hits":   float64(cacheAfter.Hits),
			"runner.step.misses": float64(cacheAfter.Misses),
		}
		var b strings.Builder
		for i, e := range entries {
			text := reports[i]
			header, body, _ := strings.Cut(text, "\n")
			if !strings.HasPrefix(header, "== "+e.ID+":") || strings.TrimSpace(body) == "" {
				o.fail("paper: artifact %s is empty", e.ID)
			} else if strings.Contains(body, "ERROR") {
				o.fail("paper: artifact %s reports an error", e.ID)
			}
			b.WriteString(text)
			o.layers["experiments."+e.ID+"_s"] = float64(tr.spans[spans[i]].dur()) / 1e9
		}
		o.report = []byte(b.String())
		return o
	}
	return inst, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
