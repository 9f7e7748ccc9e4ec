package serve_test

import (
	"fmt"
	"sync"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/autoscale"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/runner"
	"mugi/internal/serve"
	"mugi/internal/sim"
)

// pricing records every StepFunc call, keyed by (DVFS point, workload):
// every other sim.Params field is fixed by the replica's Config.
type pricing struct {
	mu    sync.Mutex
	calls map[arch.DVFSPoint]map[string]int
	total int
}

func (c *pricing) step(p sim.Params, w model.Workload) sim.Result {
	c.mu.Lock()
	if c.calls == nil {
		c.calls = map[arch.DVFSPoint]map[string]int{}
	}
	if c.calls[p.DVFS] == nil {
		c.calls[p.DVFS] = map[string]int{}
	}
	c.calls[p.DVFS][fmt.Sprintf("%+v", w)]++
	c.total++
	c.mu.Unlock()
	return runner.Simulate(p, w)
}

// repeats counts the (point, workload) pairs priced more than once at
// the given points.
func (c *pricing) repeats(points ...arch.DVFSPoint) int {
	n := 0
	for _, d := range points {
		for _, calls := range c.calls[d] {
			if calls > 1 {
				n++
			}
		}
	}
	return n
}

// shared reports whether some workload was priced at both a and b — the
// table keys the DVFS point, so a shape seen at one point is priced
// again at another.
func (c *pricing) shared(a, b arch.DVFSPoint) bool {
	for w := range c.calls[a] {
		if c.calls[b][w] > 0 {
			return true
		}
	}
	return false
}

func replica(p *pricing) serve.Config {
	return serve.Config{Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.Single, Simulate: p.step}
}

// TestStepTablePricesEachShapeOnce: an engine prices each distinct step
// shape through its StepFunc once per run — the StepFunc contract — and
// the shape's DVFS point is part of its identity, so a brownout rung or
// an autoscale ladder point is priced at its own operating point.
func TestStepTablePricesEachShapeOnce(t *testing.T) {
	t.Run("poisson", func(t *testing.T) {
		var p pricing
		rep, err := serve.Run(replica(&p), mustTrace(t, serve.TraceConfig{Kind: serve.Poisson, Rate: 2, Requests: 1000, Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if r := p.repeats(arch.DVFSPoint{}); r > 0 {
			t.Errorf("%d shapes priced more than once in one run", r)
		}
		steps := rep.PrefillSteps + rep.DecodeSteps
		if p.total == 0 || p.total*10 > steps {
			t.Errorf("%d StepFunc calls for %d steps, want far fewer", p.total, steps)
		}
	})

	t.Run("brownout DVFS rung", func(t *testing.T) {
		var p pricing
		cfg := replica(&p)
		cfg.MaxQueue = 64
		cfg.Brownout = &overload.BrownoutSpec{Steps: overload.DefaultBrownoutSteps(), HighWater: 4, Dwell: 5}
		tc := serve.TraceConfig{Kind: serve.Bursty, Rate: 0.2, Requests: 200, Seed: 1, Tenants: []serve.TenantSpec{
			{Class: overload.Interactive, Share: 0.5}, {Class: overload.BestEffort, Share: 0.5},
		}}
		rep, err := serve.Run(cfg, mustTrace(t, tc))
		if err != nil {
			t.Fatal(err)
		}
		steps := overload.DefaultBrownoutSteps()
		if rep.BrownoutMaxLevel < len(steps) {
			t.Fatalf("brownout reached level %d, never the DVFS rung %d — the case proves nothing", rep.BrownoutMaxLevel, len(steps))
		}
		rung := steps[len(steps)-1].DVFS
		if len(p.calls[rung]) == 0 {
			t.Fatalf("DVFS rung %q engaged but never priced", rung.Name)
		}
		if !p.shared(arch.DVFSPoint{}, rung) {
			t.Errorf("no shape priced at both nominal and rung %q — the step table ignores the DVFS point", rung.Name)
		}
		if r := p.repeats(arch.DVFSPoint{}, rung); r > 0 {
			t.Errorf("%d shapes priced more than once in one run", r)
		}
	})

	t.Run("autoscale ladder", func(t *testing.T) {
		var p pricing
		ladder := arch.DVFSLadder()
		rep, err := autoscale.Run(autoscale.Config{Replica: replica(&p), MaxReplicas: 2, Ladder: ladder},
			serve.TraceConfig{Kind: serve.Diurnal, Rate: 0.05, Requests: 800, Seed: 3, Period: 7200})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DVFSShifts == 0 {
			t.Fatal("controller never shifted DVFS — the case proves nothing")
		}
		used := 0
		for _, pt := range ladder {
			if len(p.calls[pt]) > 0 {
				used++
			}
		}
		if len(p.calls[ladder[0]]) == 0 || used < 2 {
			t.Errorf("controller shifted DVFS %d times but priced %d of %d ladder points", rep.DVFSShifts, used, len(ladder))
		}
		// The calibration search runs many probes at the replica's own
		// (zero) point; the controller's one engine prices each ladder
		// point's shapes once.
		if r := p.repeats(ladder...); r > 0 {
			t.Errorf("%d shapes priced more than once in one run", r)
		}
		for pt := range p.calls {
			if pt != (arch.DVFSPoint{}) && !onLadder(pt, ladder) {
				t.Errorf("priced point %+v is not on the ladder", pt)
			}
		}
		if !p.shared(ladder[0], ladder[1]) && !p.shared(ladder[0], ladder[2]) {
			t.Error("no shape priced at two ladder points — the step table ignores the DVFS point")
		}
	})
}

func onLadder(p arch.DVFSPoint, ladder []arch.DVFSPoint) bool {
	for _, q := range ladder {
		if p == q {
			return true
		}
	}
	return false
}

func mustTrace(t *testing.T, tc serve.TraceConfig) serve.Trace {
	t.Helper()
	tr, err := serve.NewTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
