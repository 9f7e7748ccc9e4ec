// Capacity search: the serving question inverted. Instead of "what does
// this hardware do at rate r", FindCapacity binary-searches the highest
// arrival rate a (design, mesh) cell sustains — the headline a deployment
// is sized by — and SearchCapacity shards a grid of cells across the
// runner pool. Every probe is a deterministic RunStream over a seeded
// trace, and the search path depends only on probe outcomes, so results
// are byte-identical at any parallelism.

package serve

import (
	"fmt"
	"math"

	"mugi/internal/arch"
	"mugi/internal/noc"
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
	// TTFTP99 and LatencyP99, when positive, additionally require each
	// probe's p99 tail (seconds) to hold the bound — the SLO-bound
	// capacity search a MinuteServe entry is scored by. Zero disables a
	// bound, leaving the pure goodput criterion byte-identical to earlier
	// releases.
	TTFTP99, LatencyP99 float64
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

// FindCapacity binary-searches the maximum sustained request rate of one
// configuration: geometric doubling brackets the capacity between a
// passing and a failing rate, then log-space bisection narrows it. The
// probe sequence is fully deterministic, so identical inputs return
// byte-identical results at any runner parallelism.
func FindCapacity(cfg Config, spec CapacitySpec) (CapacityResult, error) {
	cfg = cfg.WithDefaults()
	spec = spec.withDefaults()
	if spec.MinRate <= 0 || spec.MaxRate < spec.MinRate {
		return CapacityResult{}, fmt.Errorf("serve: capacity bracket [%g, %g] invalid", spec.MinRate, spec.MaxRate)
	}
	if spec.Goodput <= 0 || spec.Goodput > 1 {
		return CapacityResult{}, fmt.Errorf("serve: goodput %g must be in (0, 1]", spec.Goodput)
	}
	res := CapacityResult{Design: cfg.Design.Name, Mesh: cfg.Mesh.String()}
	probe := func(rate float64) (Report, bool, error) {
		tc := spec.Trace
		tc.Rate = rate
		src, err := NewStream(tc)
		if err != nil {
			return Report{}, false, err
		}
		rep, err := RunStream(cfg, src)
		if err != nil {
			return Report{}, false, err
		}
		pass := rep.SustainedRate >= spec.Goodput*rep.OfferedRate
		if spec.TTFTP99 > 0 && rep.TTFT.P99 > spec.TTFTP99 {
			pass = false
		}
		if spec.LatencyP99 > 0 && rep.Latency.P99 > spec.LatencyP99 {
			pass = false
		}
		return rep, pass, nil
	}

	rep, ok, err := probe(spec.MinRate)
	res.Probes++
	if err != nil {
		return res, err
	}
	if !ok {
		// Even the lower bracket overloads the cell.
		return res, nil
	}
	res.Capacity, res.AtCapacity = spec.MinRate, rep

	// Geometric doubling until a rate fails (or the bracket tops out).
	hi := spec.MinRate
	for ok && hi < spec.MaxRate {
		hi = math.Min(hi*2, spec.MaxRate)
		rep, ok, err = probe(hi)
		res.Probes++
		if err != nil {
			return res, err
		}
		if ok {
			res.Capacity, res.AtCapacity = hi, rep
		}
	}
	if ok {
		// Sustained at MaxRate itself; the search saturates there.
		return res, nil
	}

	// Log-space bisection between the last passing and first failing rate.
	lo := res.Capacity
	for i := 0; i < spec.Iters; i++ {
		mid := math.Sqrt(lo * hi)
		rep, ok, err = probe(mid)
		res.Probes++
		if err != nil {
			return res, err
		}
		if ok {
			lo = mid
			res.Capacity, res.AtCapacity = mid, rep
		} else {
			hi = mid
		}
	}
	return res, nil
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
