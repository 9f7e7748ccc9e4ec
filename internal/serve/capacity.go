// Capacity search: the serving question inverted. Instead of "what does
// this hardware do at rate r", Search finds the highest arrival rate a
// configuration sustains — the headline a deployment is sized by.
// FindCapacity runs it with a RunStream probe, SearchCapacity shards a
// grid of cells across the runner pool, and internal/fleet runs the same
// Search with a fleet probe. Every probe is a deterministic serving run
// over a seeded trace, and the search path depends only on probe
// outcomes, so results are byte-identical at any parallelism.

package serve

import (
	"fmt"
	"math"

	"mugi/internal/arch"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/runner"
)

// Capacity-search defaults.
const (
	// DefaultGoodput is the sustained/offered ratio a probe must reach to
	// count as "keeping up". Finite probe traces pay a drain tail after
	// the last arrival, so 1.0 would reject every rate; 0.9 tolerates the
	// tail while still rejecting a growing queue.
	DefaultGoodput = 0.9
	// DefaultMinRate is the search's lower bracket (req/s) — below any
	// single studied node's capacity.
	DefaultMinRate = 1.0 / 128
	// DefaultMaxRate is the search's upper bracket (req/s).
	DefaultMaxRate = 64
	// DefaultCapacityIters is the bisection count after bracketing; each
	// iteration halves the bracket in log space (~7% final resolution
	// from a one-octave bracket).
	DefaultCapacityIters = 6
	// DefaultProbeRequests is the per-probe trace length.
	DefaultProbeRequests = 48
)

// CapacitySpec parameterizes a capacity search.
type CapacitySpec struct {
	// Trace is the probe-trace template; Rate is overwritten per probe
	// and Requests defaults to DefaultProbeRequests.
	Trace TraceConfig
	// Goodput is the sustained/offered pass threshold (default
	// DefaultGoodput).
	Goodput float64
	// MinRate/MaxRate bracket the search (defaults DefaultMinRate,
	// DefaultMaxRate).
	MinRate, MaxRate float64
	// Iters is the bisection count after geometric bracketing (default
	// DefaultCapacityIters).
	Iters int
	// SLO additionally requires each probe's p99 tails to hold its
	// bounds — the SLO-bound capacity search a MinuteServe entry is
	// scored by. The zero SLO leaves the pure goodput criterion.
	SLO overload.SLO
}

// withDefaults materializes the zero-value defaults.
func (s CapacitySpec) withDefaults() CapacitySpec {
	if s.Trace.Requests == 0 {
		s.Trace.Requests = DefaultProbeRequests
	}
	if s.Goodput == 0 {
		s.Goodput = DefaultGoodput
	}
	if s.MinRate == 0 {
		s.MinRate = DefaultMinRate
	}
	if s.MaxRate == 0 {
		s.MaxRate = DefaultMaxRate
	}
	if s.Iters == 0 {
		s.Iters = DefaultCapacityIters
	}
	return s
}

// validate rejects a defaulted spec the search cannot run.
func (s CapacitySpec) validate() error {
	if !(s.MinRate > 0) || math.IsInf(s.MaxRate, 0) || !(s.MaxRate >= s.MinRate) {
		return fmt.Errorf("serve: capacity bracket [%g, %g] invalid", s.MinRate, s.MaxRate)
	}
	if !(s.Goodput > 0 && s.Goodput <= 1) {
		return fmt.Errorf("serve: goodput %g must be in (0, 1]", s.Goodput)
	}
	if s.Iters < 0 {
		return fmt.Errorf("serve: capacity iterations %d must be non-negative", s.Iters)
	}
	return nil
}

// CapacityResult is one searched cell.
type CapacityResult struct {
	// Design and Mesh identify the cell.
	Design, Mesh string
	// Capacity is the highest probed rate the cell sustained (0 if even
	// MinRate overloads it).
	Capacity float64
	// Probes counts serving runs spent on the search.
	Probes int
	// AtCapacity is the report of the highest sustaining probe (zero
	// Report when Capacity is 0).
	AtCapacity Report
	// Err carries a per-cell failure in sharded searches (nil on the
	// single-cell FindCapacity path, which returns it directly).
	Err error
}

// Search is the one capacity search every planner runs: geometric
// doubling from MinRate brackets the capacity between a passing and a
// failing rate, then Iters log-space bisections narrow it. Each probe
// serves spec.Trace at the probed rate through probe, which returns its
// own result and the report judged by the pass rule: sustained rate at
// least Goodput × offered rate, with spec.SLO met on the p99 tails. It
// returns the highest passing rate (0 if even MinRate fails), that
// probe's result and the probe count; on a probe error it returns them
// as far as the search got. The probe sequence depends only on probe
// outcomes, so a deterministic probe gives byte-identical results at any
// runner parallelism.
func Search[R any](spec CapacitySpec, probe func(Stream) (R, Report, error)) (capacity float64, at R, probes int, err error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return 0, at, 0, err
	}
	try := func(rate float64) (bool, error) {
		probes++
		tc := spec.Trace
		tc.Rate = rate
		src, err := NewStream(tc)
		if err != nil {
			return false, err
		}
		r, rep, err := probe(src)
		if err != nil {
			return false, err
		}
		ok := rep.SustainedRate >= spec.Goodput*rep.OfferedRate && spec.SLO.Met(rep.TTFT.P99, rep.Latency.P99)
		if ok {
			capacity, at = rate, r
		}
		return ok, nil
	}

	ok, err := try(spec.MinRate)
	// Geometric doubling until a rate fails (or the bracket tops out).
	hi := spec.MinRate
	for err == nil && ok && hi < spec.MaxRate {
		hi = math.Min(hi*2, spec.MaxRate)
		ok, err = try(hi)
	}
	if err != nil || capacity == 0 || ok {
		// A probe failed, even the floor overloads the cell, or the
		// search saturates at MaxRate.
		return capacity, at, probes, err
	}
	// Log-space bisection between the last passing and first failing rate.
	lo := capacity
	for i := 0; i < spec.Iters && err == nil; i++ {
		mid := math.Sqrt(lo * hi)
		if ok, err = try(mid); ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return capacity, at, probes, err
}

// FindCapacity searches the maximum sustained request rate of one
// configuration, probing with RunStream (see Search). Its probes share
// one price list (Config.SharePrices).
func FindCapacity(cfg Config, spec CapacitySpec) (CapacityResult, error) {
	cfg = cfg.SharePrices()
	res := CapacityResult{Design: cfg.Design.Name, Mesh: cfg.Mesh.String()}
	var err error
	res.Capacity, res.AtCapacity, res.Probes, err = Search(spec, func(src Stream) (Report, Report, error) {
		rep, err := RunStream(cfg, src)
		return rep, rep, err
	})
	return res, err
}

// CapacityCell is one (design, mesh) point of a sharded capacity search.
type CapacityCell struct {
	Design arch.Design
	Mesh   noc.Mesh
}

// SearchCapacity runs FindCapacity for every cell, sharding cells across
// the runner pool. Each cell's search is serial and deterministic and
// results are collected by index, so the output is byte-identical at any
// parallelism; per-cell failures land in CapacityResult.Err. base
// supplies everything but the cell's design and mesh.
func SearchCapacity(base Config, cells []CapacityCell, spec CapacitySpec) []CapacityResult {
	out := make([]CapacityResult, len(cells))
	runner.Map(len(cells), func(i int) {
		cfg := base
		cfg.Design = cells[i].Design
		cfg.Mesh = cells[i].Mesh
		res, err := FindCapacity(cfg, spec)
		res.Err = err
		out[i] = res
	})
	return out
}
