package serve

import (
	"fmt"
	"math"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/runner"
)

// capSpec keeps search tests fast: short probes, few bisections.
func capSpec() CapacitySpec {
	return CapacitySpec{
		Trace: TraceConfig{Kind: Poisson, Requests: 16, Seed: 3},
		Iters: 4,
	}
}

func TestFindCapacityBrackets(t *testing.T) {
	res, err := FindCapacity(baseConfig(), capSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity <= 0 {
		t.Fatalf("single node found no sustainable rate: %+v", res)
	}
	if res.Capacity < DefaultMinRate || res.Capacity > DefaultMaxRate {
		t.Errorf("capacity %.4f outside bracket", res.Capacity)
	}
	if res.Probes < 3 {
		t.Errorf("suspiciously few probes: %d", res.Probes)
	}
	if res.AtCapacity.Completed != 16 {
		t.Errorf("capacity report incomplete: %+v", res.AtCapacity)
	}
	if res.Design != "Mugi (256)" || res.Mesh != "1x1" {
		t.Errorf("cell identity %q/%q", res.Design, res.Mesh)
	}
	// The found capacity actually sustains its own probe.
	if g := res.AtCapacity.SustainedRate / res.AtCapacity.OfferedRate; g < DefaultGoodput {
		t.Errorf("capacity probe goodput %.3f below threshold", g)
	}
}

// TestCapacityScalesWithMesh: a 4x4 mesh must sustain a strictly higher
// rate than a single node — the capacity-search spelling of
// TestMeshSpeedsUpServing.
func TestCapacityScalesWithMesh(t *testing.T) {
	single, err := FindCapacity(baseConfig(), capSpec())
	if err != nil {
		t.Fatal(err)
	}
	meshCfg := baseConfig()
	meshCfg.Mesh = noc.NewMesh(4, 4)
	mesh, err := FindCapacity(meshCfg, capSpec())
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Capacity <= single.Capacity {
		t.Errorf("4x4 capacity %.4f not above single-node %.4f", mesh.Capacity, single.Capacity)
	}
}

// TestFindCapacityUnsustainableFloor: a bracket whose floor already
// overloads the cell reports capacity 0 with a zero report, not an error.
func TestFindCapacityUnsustainableFloor(t *testing.T) {
	spec := capSpec()
	spec.MinRate = 50
	spec.MaxRate = 100
	res, err := FindCapacity(baseConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity != 0 || res.Probes != 1 {
		t.Errorf("overloaded floor: %+v", res)
	}
}

// TestFindCapacityValidates: a spec or replica configuration the search
// cannot run is an error, never a wrong capacity with a nil error (or a
// hang on NaN arrivals, or a panic).
func TestFindCapacityValidates(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		mut  func(*CapacitySpec)
	}{
		{"inverted bracket", func(s *CapacitySpec) { s.MinRate, s.MaxRate = 4, 2 }},
		{"goodput above 1", func(s *CapacitySpec) { s.Goodput = 1.5 }},
		{"goodput NaN", func(s *CapacitySpec) { s.Goodput = nan }},
		{"min rate NaN", func(s *CapacitySpec) { s.MinRate = nan }},
		{"max rate NaN", func(s *CapacitySpec) { s.MaxRate = nan }},
		{"max rate infinite", func(s *CapacitySpec) { s.MaxRate = math.Inf(1) }},
		{"negative iters", func(s *CapacitySpec) { s.Iters = -1 }},
	}
	for _, tc := range cases {
		spec := capSpec()
		tc.mut(&spec)
		if res, err := FindCapacity(baseConfig(), spec); err == nil {
			t.Errorf("%s: accepted, capacity %g after %d probes", tc.name, res.Capacity, res.Probes)
		}
	}
	for _, tc := range malformedConfigs() {
		cfg := baseConfig()
		tc.mut(&cfg)
		if res, err := FindCapacity(cfg, capSpec()); err == nil {
			t.Errorf("%s: accepted, capacity %g after %d probes", tc.name, res.Capacity, res.Probes)
		}
	}
}

// TestFindCapacitySLOBounds covers the SLO-extended search MinuteServe
// entries are scored by: a bound loose enough never to trip leaves the
// pure-goodput result identical, a finite tail bound can only lower
// capacity and the capacity probe holds it, and an impossible bound
// reports unsustainable (capacity 0) instead of erroring.
func TestFindCapacitySLOBounds(t *testing.T) {
	base, err := FindCapacity(baseConfig(), capSpec())
	if err != nil {
		t.Fatal(err)
	}
	loose := capSpec()
	loose.SLO = overload.SLO{TTFTP99: 1e6, LatencyP99: 1e6}
	if res, err := FindCapacity(baseConfig(), loose); err != nil {
		t.Fatal(err)
	} else if res.Capacity != base.Capacity || res.Probes != base.Probes {
		t.Errorf("untripped SLO changed the search: %.6f/%d vs %.6f/%d",
			res.Capacity, res.Probes, base.Capacity, base.Probes)
	}
	tight := capSpec()
	tight.SLO.TTFTP99 = base.AtCapacity.TTFT.P99 * 0.5
	bounded, err := FindCapacity(baseConfig(), tight)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Capacity >= base.Capacity {
		t.Errorf("tail bound did not lower capacity: %.6f >= %.6f",
			bounded.Capacity, base.Capacity)
	}
	if bounded.Capacity > 0 && bounded.AtCapacity.TTFT.P99 > tight.SLO.TTFTP99 {
		t.Errorf("capacity probe violates its own bound: TTFT p99 %.4f > %.4f",
			bounded.AtCapacity.TTFT.P99, tight.SLO.TTFTP99)
	}
	impossible := capSpec()
	impossible.SLO.TTFTP99 = 1e-9
	res, err := FindCapacity(baseConfig(), impossible)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity != 0 {
		t.Errorf("impossible bound should be unsustainable, got %.6f", res.Capacity)
	}
}

// TestSearchCapacityDeterministicAtAnyParallelism is the engine's
// acceptance guarantee: the sharded grid search renders byte-identical
// results whether cells run serially or across eight workers.
func TestSearchCapacityDeterministicAtAnyParallelism(t *testing.T) {
	cells := []CapacityCell{
		{Design: arch.Mugi(256), Mesh: noc.Single},
		{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2)},
		{Design: arch.SystolicArray(16, true), Mesh: noc.Single},
	}
	base := Config{Model: baseConfig().Model}
	defer runner.SetParallelism(0)

	render := func(par int) []string {
		runner.SetParallelism(par)
		results := SearchCapacity(base, cells, capSpec())
		out := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("cell %d: %v", i, r.Err)
			}
			// Capacity, probe count, and the full at-capacity report pin
			// both the search path and the probe contents.
			out[i] = fmt.Sprintf("%s/%s capacity %.6f probes %d\n%s",
				r.Design, r.Mesh, r.Capacity, r.Probes, r.AtCapacity.String())
		}
		return out
	}
	serial := render(1)
	parallel := render(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("cell %d diverges across parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}
