package fleet

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/serve"
)

// cellAt fabricates a planned cell for frontier tests.
func cellAt(name string, capacity, dollarsPerHour, watts float64) CellResult {
	return CellResult{
		Design: name, Mesh: "1x1", Replicas: 1, Capacity: capacity,
		TCO: TCO{DollarsPerHour: dollarsPerHour, AvgWatts: watts},
	}
}

// TestFrontierPrunesDominated pins the dominance rule on a synthetic
// grid: strictly worse cells drop, incomparable cells survive, and the
// frontier sorts by ascending cost.
func TestFrontierPrunesDominated(t *testing.T) {
	cells := []CellResult{
		cellAt("cheap-slow", 1, 1, 10),
		cellAt("dominated", 1, 2, 5), // same perf as cheap-slow, pricier
		cellAt("mid", 4, 3, 20),
		cellAt("fast-dear", 8, 9, 40),
		cellAt("never-ran", 0, 0.1, 0.1),                               // zero capacity: excluded
		{Design: "errored", Capacity: 9, Err: errors.New("cell died")}, // errored: excluded
	}
	front := Frontier(cells, ByDollar)
	want := []string{"cheap-slow", "mid", "fast-dear"}
	if len(front) != len(want) {
		t.Fatalf("frontier size %d, want %d (%v)", len(front), len(want), names(front))
	}
	for i, w := range want {
		if front[i].Design != w {
			t.Errorf("frontier[%d] = %s, want %s", i, front[i].Design, w)
		}
	}
	// On the watt axis "dominated" (5 W for capacity 1) beats
	// "cheap-slow" (10 W), flipping the pruning.
	byWatt := Frontier(cells, ByWatt)
	if byWatt[0].Design != "dominated" {
		t.Errorf("perf/W frontier starts at %s, want dominated", byWatt[0].Design)
	}
}

// names lists the designs of a frontier for failure messages.
func names(cells []CellResult) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.Design
	}
	return out
}

// TestPlanHonorsSLO: a tight TTFT SLO must not report more capacity than
// the unconstrained search, and on a slow single node it must bind.
func TestPlanHonorsSLO(t *testing.T) {
	base := PlanSpec{
		Base:  serve.Config{Model: model.Llama2_7B},
		Cells: []Cell{{Design: arch.Mugi(256), Mesh: noc.Single, Replicas: 1}},
		Trace: serve.TraceConfig{Kind: serve.Poisson, Requests: 12, Seed: testSeed},
		Iters: 2,
	}
	unconstrained := Plan(base)[0]
	if unconstrained.Err != nil {
		t.Fatal(unconstrained.Err)
	}
	tight := base
	tight.SLO = SLO{TTFTP99: unconstrained.At.Fleet.TTFT.P99 / 4}
	bound := Plan(tight)[0]
	if bound.Err != nil {
		t.Fatal(bound.Err)
	}
	if bound.Capacity > unconstrained.Capacity {
		t.Errorf("SLO-bound capacity %v exceeds unconstrained %v", bound.Capacity, unconstrained.Capacity)
	}
	if bound.Capacity == unconstrained.Capacity {
		t.Errorf("quartered TTFT SLO did not bind (capacity %v)", bound.Capacity)
	}
	if bound.Capacity > 0 && !tight.SLO.Met(bound.At.Fleet.TTFT.P99, bound.At.Fleet.Latency.P99) {
		t.Error("reported operating point violates the SLO it was searched under")
	}
}

// TestPlanReplicasBuyCapacity: adding replicas must not lose capacity,
// and the priced operating point must carry the replica multiple in its
// capex.
func TestPlanReplicasBuyCapacity(t *testing.T) {
	spec := PlanSpec{
		Base:   serve.Config{Model: model.Llama2_7B},
		Cells:  Grid([]arch.Design{arch.Mugi(256)}, []noc.Mesh{noc.NewMesh(2, 2)}, []int{1, 2}),
		Policy: JSQ,
		Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 12, Seed: testSeed},
		Iters:  2,
	}
	results := Plan(spec)
	one, two := results[0], results[1]
	if one.Err != nil || two.Err != nil {
		t.Fatalf("errs: %v %v", one.Err, two.Err)
	}
	if two.Capacity < one.Capacity {
		t.Errorf("2 replicas sustain %v < 1 replica's %v", two.Capacity, one.Capacity)
	}
	if !close(two.TCO.FleetCapex, 2*one.TCO.FleetCapex) {
		t.Errorf("2-replica capex %v != 2x %v", two.TCO.FleetCapex, one.TCO.FleetCapex)
	}
	if one.PerfPerDollar <= 0 || one.PerfPerWatt <= 0 {
		t.Errorf("efficiency metrics not populated: %v %v", one.PerfPerDollar, one.PerfPerWatt)
	}
}

// TestPlanOneReplicaMatchesFindCapacity: a one-replica JSQ cell searched
// through fleet.Run finds exactly what serve.FindCapacity finds through
// RunStream — same capacity, same probe count, same at-capacity report —
// with and without a binding SLO. This is what lets MinuteServe score
// one- and N-replica entries alike.
func TestPlanOneReplicaMatchesFindCapacity(t *testing.T) {
	base := serve.Config{Model: model.Llama2_7B}
	trace := serve.TraceConfig{Kind: serve.Poisson, Requests: 12, Seed: testSeed}
	for _, d := range []arch.Design{arch.Mugi(256), arch.SystolicArray(16, true)} {
		for _, m := range []noc.Mesh{noc.Single, noc.NewMesh(2, 2)} {
			cfg := base
			cfg.Design, cfg.Mesh = d, m
			free, err := serve.FindCapacity(cfg, serve.CapacitySpec{Trace: trace, Iters: 3})
			if err != nil {
				t.Fatal(err)
			}
			floor, err := serve.FindCapacity(cfg, serve.CapacitySpec{Trace: trace, MaxRate: serve.DefaultMinRate})
			if err != nil {
				t.Fatal(err)
			}
			// A latency bound halfway between the floor probe's tail and
			// the unconstrained capacity's tail passes the floor and
			// fails before the goodput rule does.
			bound := SLO{LatencyP99: (floor.AtCapacity.Latency.P99 + free.AtCapacity.Latency.P99) / 2}
			for _, slo := range []SLO{{}, bound} {
				want, err := serve.FindCapacity(cfg, serve.CapacitySpec{Trace: trace, Iters: 3, SLO: slo})
				if err != nil {
					t.Fatal(err)
				}
				if slo == bound && !(want.Capacity > 0 && want.Capacity < free.Capacity) {
					t.Fatalf("%s %s: SLO %+v does not bind (capacity %g, unconstrained %g)",
						d.Name, m, slo, want.Capacity, free.Capacity)
				}
				got := Plan(PlanSpec{
					Base: base, Cells: []Cell{{Design: d, Mesh: m, Replicas: 1}}, Policy: JSQ,
					Trace: trace, Iters: 3, SLO: slo,
				})[0]
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				if got.Capacity != want.Capacity || got.Probes != want.Probes {
					t.Errorf("%s %s SLO %+v: plan %g in %d probes, FindCapacity %g in %d",
						d.Name, m, slo, got.Capacity, got.Probes, want.Capacity, want.Probes)
				}
				if !reflect.DeepEqual(got.At.Fleet, want.AtCapacity) {
					t.Errorf("%s %s SLO %+v: at-capacity reports differ:\nplan %+v\nserve %+v",
						d.Name, m, slo, got.At.Fleet, want.AtCapacity)
				}
			}
		}
	}
}

// TestPlanValidates: a search spec serve.Search rejects comes back as the
// cell's error, not as a zero capacity.
func TestPlanValidates(t *testing.T) {
	res := Plan(PlanSpec{
		Base:    serve.Config{Model: model.Llama2_7B},
		Cells:   []Cell{{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), Replicas: 1}},
		Trace:   serve.TraceConfig{Kind: serve.Poisson, Requests: 4, Seed: testSeed},
		Goodput: math.NaN(),
	})[0]
	if res.Err == nil {
		t.Errorf("NaN goodput planned capacity %g in %d probes without an error", res.Capacity, res.Probes)
	}
}
