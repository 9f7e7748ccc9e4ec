package runner

import (
	"sync/atomic"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/raceflag"
	"mugi/internal/sim"
)

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		e := New(workers)
		const n = 100
		counts := make([]atomic.Int64, n)
		e.Map(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	e := New(4)
	ran := false
	e.Map(0, func(int) { ran = true })
	e.Map(-3, func(int) { ran = true })
	if ran {
		t.Error("Map with n <= 0 must not invoke f")
	}
}

func TestNestedMapDoesNotDeadlock(t *testing.T) {
	e := New(2)
	var total atomic.Int64
	e.Map(4, func(int) {
		e.Map(4, func(int) { total.Add(1) })
	})
	if total.Load() != 16 {
		t.Fatalf("nested Map ran %d inner items, want 16", total.Load())
	}
}

func TestMapPropagatesPanic(t *testing.T) {
	e := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic must reach the caller")
		}
	}()
	e.Map(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestSetParallelism(t *testing.T) {
	e := New(0)
	if e.Parallelism() < 1 {
		t.Fatalf("default parallelism %d", e.Parallelism())
	}
	e.SetParallelism(7)
	if e.Parallelism() != 7 {
		t.Fatalf("parallelism %d, want 7", e.Parallelism())
	}
}

func llamaPoint(batch int) (sim.Params, model.Workload) {
	return sim.Params{Design: arch.Mugi(128), Mesh: noc.Single},
		model.Llama2_7B.DecodeOps(batch, 128)
}

// TestSimulateKeysOnContent: the result is a function of the full input
// tuple — batch, operator list and design each change it, while spelling
// the defaults explicitly does not — and every call is counted.
func TestSimulateKeysOnContent(t *testing.T) {
	e := New(1)
	p, w := llamaPoint(8)
	base := e.Simulate(p, w)

	// A different batch is a different tuple.
	_, w2 := llamaPoint(16)
	// A stripped op list is a different tuple even with the same model.
	stripped := w
	stripped.Ops = w.Ops[:2]
	for i, r := range []sim.Result{
		e.Simulate(p, w2),
		e.Simulate(p, stripped),
		e.Simulate(sim.Params{Design: arch.Carat(128)}, w),
	} {
		if r.TotalCycles == base.TotalCycles && r.DynamicEnergy == base.DynamicEnergy {
			t.Errorf("variant %d (batch, stripped, design): distinct tuple priced identically", i)
		}
	}

	// Spelling the defaults explicitly prices the same point.
	explicit := e.Simulate(sim.Params{
		Design: p.Design, Mesh: noc.Single,
		Cost: arch.Cost45nm, Bandwidth: sim.HBMBandwidth,
	}, w)
	if explicit != base {
		t.Error("explicit defaults changed the result")
	}
	if st := e.CacheStats(); st.Misses != 5 || st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 5 counted calls", st)
	}
}

func TestResetCache(t *testing.T) {
	e := New(2)
	p, w := llamaPoint(8)
	e.Simulate(p, w)
	e.ResetCache()
	if st := e.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats survived reset: %+v", st)
	}
	e.Simulate(p, w)
	if st := e.CacheStats(); st.Misses != 1 {
		t.Fatalf("post-reset call not counted: %+v", st)
	}
}

// TestSimulateHitAllocationFree: a warmed Simulate must not allocate —
// the property that keeps million-step serving traces allocation-free.
func TestSimulateHitAllocationFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := New(1)
	p, w := llamaPoint(4)
	e.Simulate(p, w) // warm
	allocs := testing.AllocsPerRun(100, func() {
		e.Simulate(p, w)
	})
	if allocs != 0 {
		t.Errorf("Simulate allocates %.1f/op, want 0", allocs)
	}
}

func TestParallelSimulateMatchesSerial(t *testing.T) {
	// The same point grid computed serially and at parallelism 8 must
	// yield bit-identical results (pure functions + index-addressed
	// collection).
	designs := []arch.Design{arch.Mugi(128), arch.Carat(128), arch.SystolicArray(16, false)}
	batches := []int{1, 4, 8}
	type cell struct{ thr, cyc float64 }
	grid := func(e *Engine) []cell {
		out := make([]cell, len(designs)*len(batches))
		e.Map(len(out), func(i int) {
			d := designs[i/len(batches)]
			w := model.Llama2_7B.DecodeOps(batches[i%len(batches)], 256)
			res := e.Simulate(sim.Params{Design: d}, w)
			out[i] = cell{res.TokensPerSecond, res.TotalCycles}
		})
		return out
	}
	serial := grid(New(1))
	parallel := grid(New(8))
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestSimulateKeysOnNoCBandwidth: two requests differing only in the
// configured NoC bandwidth price differently — a starved mesh's throttled
// result must never answer for the healthy default provisioning.
func TestSimulateKeysOnNoCBandwidth(t *testing.T) {
	e := New(2)
	w := model.Llama2_7B.DecodeOps(2, 256)
	mesh := noc.NewMesh(4, 4)
	starved := e.Simulate(sim.Params{Design: arch.Mugi(128), Mesh: mesh, NoCBandwidth: 1e6}, w)
	healthy := e.Simulate(sim.Params{Design: arch.Mugi(128), Mesh: mesh}, w)
	if !starved.NoCLimited {
		t.Fatal("1 MB/s NoC must throttle the pass")
	}
	if healthy.NoCLimited || healthy.Seconds == starved.Seconds {
		t.Errorf("healthy run priced like the starved one: %+v", healthy)
	}
	if st := e.CacheStats(); st.Misses != 2 {
		t.Errorf("two calls counted as %d", st.Misses)
	}
}
