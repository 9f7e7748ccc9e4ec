package serve_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/fleet"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/serve"
	"mugi/internal/sim"
)

// searchPricing counts StepFunc calls per (design, DVFS point,
// workload), the identity of one price within a search.
type searchPricing struct {
	mu    sync.Mutex
	calls map[string]int
}

func (c *searchPricing) step(p sim.Params, w model.Workload) sim.Result {
	k := fmt.Sprintf("%s|%+v|%+v", p.Design.Name, p.DVFS, w)
	c.mu.Lock()
	if c.calls == nil {
		c.calls = map[string]int{}
	}
	c.calls[k]++
	c.mu.Unlock()
	return sim.Simulate(p, w)
}

// pricedOnce fails the test for every price computed more than once and
// returns the sorted keys of the prices computed.
func (c *searchPricing) pricedOnce(t *testing.T) []string {
	t.Helper()
	keys := make([]string, 0, len(c.calls))
	for k, n := range c.calls {
		if n > 1 {
			t.Errorf("priced %d times: %.120s", n, k)
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Fatal("search priced no step")
	}
	sort.Strings(keys)
	return keys
}

// TestFindCapacityPricesEachShapeOnce: the probes of one capacity search
// share one price list, so every (DVFS point, step shape) is priced once
// per search, not once per probe.
func TestFindCapacityPricesEachShapeOnce(t *testing.T) {
	var p searchPricing
	cfg := serve.Config{Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.Single, Simulate: p.step}
	res, err := serve.FindCapacity(cfg, serve.CapacitySpec{
		Trace: serve.TraceConfig{Kind: serve.Poisson, Requests: 16, Seed: 3},
		Iters: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes < 3 {
		t.Fatalf("only %d probes: nothing to share", res.Probes)
	}
	p.pricedOnce(t)
}

// planOne runs a JSQ plan over cells at the given runner parallelism,
// counting its prices.
func planOne(t *testing.T, par int, cells []fleet.Cell) ([]fleet.CellResult, *searchPricing) {
	t.Helper()
	defer runner.SetParallelism(0)
	runner.SetParallelism(par)
	p := &searchPricing{}
	res := fleet.Plan(fleet.PlanSpec{
		Base:   serve.Config{Model: model.Llama2_7B, Simulate: p.step},
		Cells:  cells,
		Policy: fleet.JSQ,
		Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 12, Seed: 5},
		Iters:  3,
	})
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Probes < 3 {
			t.Fatalf("%s: only %d probes: nothing to share", r.Design, r.Probes)
		}
	}
	return res, p
}

// TestPlanPricesEachShapeOncePerSearch: every probe of a plan cell, each
// of its replicas and the JSQ estimator read one price list, so the cell
// prices every (DVFS point, step shape) once — and the results are
// byte-identical whether the replicas run serially or concurrently.
func TestPlanPricesEachShapeOncePerSearch(t *testing.T) {
	cells := []fleet.Cell{{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), Replicas: 2}}
	serial, ps := planOne(t, 1, cells)
	parallel, pp := planOne(t, 4, cells)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("cell results differ between parallelism 1 and 4")
	}
	if !reflect.DeepEqual(ps.pricedOnce(t), pp.pricedOnce(t)) {
		t.Error("parallelism changed which shapes were priced")
	}
}

// TestPlanCellsNeverSharePrices: each cell's search has its own price
// list, so a cell planned beside another prices exactly the shapes it
// prices alone, and finds the same result.
func TestPlanCellsNeverSharePrices(t *testing.T) {
	a := fleet.Cell{Design: arch.Mugi(256), Mesh: noc.Single, Replicas: 2}
	b := fleet.Cell{Design: arch.SystolicArray(16, true), Mesh: noc.Single, Replicas: 2}
	both, pboth := planOne(t, 4, []fleet.Cell{a, b})
	keys := pboth.pricedOnce(t)
	var alone []string
	for i, c := range []fleet.Cell{a, b} {
		res, p := planOne(t, 4, []fleet.Cell{c})
		if !reflect.DeepEqual(res[0], both[i]) {
			t.Errorf("%s: planned beside another cell, the result changed", c.Design.Name)
		}
		alone = append(alone, p.pricedOnce(t)...)
	}
	sort.Strings(alone)
	if !reflect.DeepEqual(keys, alone) {
		t.Errorf("two-cell plan priced %d shapes, the cells alone %d", len(keys), len(alone))
	}
}

// TestSharedPricesSurvivePanickedPricing: a StepFunc that panics (the
// simulator panics on an unknown design kind) leaves no zero cost in the
// price list — a later run of the same Config prices the shape again.
func TestSharedPricesSurvivePanickedPricing(t *testing.T) {
	fail := true
	step := func(p sim.Params, w model.Workload) sim.Result {
		if fail {
			fail = false
			panic("step failed")
		}
		return sim.Simulate(p, w)
	}
	base := serve.Config{Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.Single, Simulate: step}
	cfg := base.SharePrices()
	tr, err := serve.NewTrace(serve.TraceConfig{Kind: serve.Poisson, Rate: 1, Requests: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the failing step did not panic")
			}
		}()
		serve.Run(cfg, tr)
	}()
	got, err := serve.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("run after a panicked pricing differs:\n%s\nwant\n%s", got, want)
	}
}

// TestForeignPricesIgnored: a copy of a Config with a price list that
// changes the hardware ignores the list instead of reading another
// design's prices.
func TestForeignPricesIgnored(t *testing.T) {
	tr, err := serve.NewTrace(serve.TraceConfig{Kind: serve.Poisson, Rate: 1, Requests: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.Single}.SharePrices()
	if _, err := serve.Run(cfg, tr); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Design = arch.SystolicArray(16, true)
	got, err := serve.Run(other, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.Run(serve.Config{Model: model.Llama2_7B, Design: other.Design, Mesh: noc.Single}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("a copy with another design read the list's prices:\n%s\nwant\n%s", got, want)
	}
}
