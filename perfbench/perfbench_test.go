package main

import (
	"fmt"
	"math"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// TestWrappersKeepReportsByteIdentical runs one trace unwrapped, through
// the counting step wrapper, and through both wrappers with tracing on:
// all three reports must render to the same bytes.
func TestWrappersKeepReportsByteIdentical(t *testing.T) {
	tc := serve.TraceConfig{Kind: serve.Poisson, Rate: 0.5, Requests: 400, Seed: 7}
	base := serve.Config{Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4)}
	render := func(cfg serve.Config, wrap func(serve.Stream) serve.Stream) string {
		t.Helper()
		runner.ResetCache()
		src, err := serve.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := serve.RunStream(cfg, wrap(src))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", rep)
	}
	want := render(base, func(s serve.Stream) serve.Stream { return s })

	for _, on := range []bool{false, true} {
		tr := newTracer(on)
		cfg := base
		cfg.Simulate = tr.step
		if got := render(cfg, tr.stream); got != want {
			t.Errorf("tracing %v: wrapped report differs from the unwrapped one", on)
		}
		if tr.steps.Load() == 0 {
			t.Errorf("tracing %v: step wrapper counted no calls", on)
		}
		if on && (tr.nextCalls.Load() != int64(tc.Requests)+1 || tr.hits.Load()+tr.misses.Load() != tr.steps.Load()) {
			t.Errorf("traced run: %d Next calls, %d hits + %d misses of %d steps",
				tr.nextCalls.Load(), tr.hits.Load(), tr.misses.Load(), tr.steps.Load())
		}
	}
}

// TestPlanDigestIndependentOfWorkers checks the plan workload's output
// digest at one and two runner workers.
func TestPlanDigestIndependentOfWorkers(t *testing.T) {
	defer runner.SetParallelism(0)
	digests := map[int]string{}
	for _, workers := range []int{1, 2} {
		runner.SetParallelism(workers)
		tr := newTracer(false)
		inst, err := setupPlan(3, tr)
		if err != nil {
			t.Fatal(err)
		}
		s := timePass(tr, inst, 0)
		if s.out.failed != 0 {
			t.Fatalf("%d workers: %v", workers, s.out.problems)
		}
		digests[workers] = s.digest
	}
	if digests[1] != digests[2] {
		t.Errorf("plan digest differs: 1 worker %s, 2 workers %s", digests[1], digests[2])
	}
}

// TestCoverageCountsOverlapOnce feeds the self-time accumulator
// overlapping and disjoint child intervals on a scripted clock.
func TestCoverageCountsOverlapOnce(t *testing.T) {
	var clock int64
	c := coverage{clock: func() int64 { return clock }}
	at := func(t int64, f func() int64) { clock = t; f() }
	// Children [0,10] and [5,15] overlap; [20,30] stands alone; [22,25]
	// nests inside it.
	at(0, c.enter)
	at(5, c.enter)
	at(10, c.exit)
	at(15, c.exit)
	at(20, c.enter)
	at(22, c.enter)
	at(25, c.exit)
	at(30, c.exit)
	if got := c.total(); got != 25 {
		t.Errorf("covered %d ns, want 25 (15 + 10, overlaps once)", got)
	}
	parent := span{Start: 0, End: 40}
	if self := parent.dur() - c.total(); self != 15 {
		t.Errorf("parent self time %d ns, want 15", self)
	}
}

// TestWorkloadsPassTheirChecks runs one traced pass of every workload:
// each must pass its output checks, and on the serving workloads the
// layers' self-time shares must partition the pass.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	defer runner.SetParallelism(0)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runner.SetParallelism(w.workers)
			tr := newTracer(true)
			inst, err := w.setup(1, tr)
			if err != nil {
				t.Fatal(err)
			}
			s := timePass(tr, inst, 0)
			if s.out.failed != 0 || s.out.ops == 0 || len(s.out.report) == 0 {
				t.Fatalf("ops %d failed %d report %d bytes: %v", s.out.ops, s.out.failed, len(s.out.report), s.out.problems)
			}
			if s.out.steps == 0 {
				t.Errorf("no step-cost lookups counted")
			}
			m := passLayers(w, s)
			if _, serving := selfShares[w.name]; serving {
				if got := m["trace.attributed_share"]; math.Abs(got-1) > 0.01 {
					t.Errorf("layer self shares sum to %.4f of the pass, want 1", got)
				}
			}
			for name := range m {
				if _, ok := layerUnits[name]; !ok {
					t.Errorf("metric %s has no unit", name)
				}
			}
		})
	}
}

// TestConservationCheck makes sure a report that loses a request fails.
func TestConservationCheck(t *testing.T) {
	var o outcome
	o.checkConservation("ok", serve.Report{Requests: 5, Completed: 3, Shed: 1, Orphaned: 1})
	if o.failed != 0 {
		t.Fatalf("balanced report failed: %v", o.problems)
	}
	o.checkConservation("lossy", serve.Report{Requests: 5, Completed: 4})
	if o.failed != 1 {
		t.Errorf("report losing a request passed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Errorf("empty sample should read 0")
	}
}
