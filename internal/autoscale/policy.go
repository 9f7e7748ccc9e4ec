package autoscale

import (
	"fmt"
	"math"
	"strings"

	"mugi/internal/arch"
)

// Observation is what a policy sees at each tick: the controller's
// queue, fleet state and calibrated rates. Everything is computed from
// the serial event loop, so a policy that is a pure function of its
// Observation keeps the run deterministic.
type Observation struct {
	// Now is the tick's simulated time; Tick is the decision interval.
	Now, Tick float64
	// QueueLen is the controller queue depth; InFlight counts admitted
	// requests still decoding across all replicas.
	QueueLen, InFlight int
	// Ready counts Idle+Active replicas, Booting and Draining count
	// their states, Powered is Ready+Booting (the fleet the policy is
	// steering toward its target).
	Ready, Booting, Draining, Powered int
	// MinReplicas and MaxReplicas echo the config bounds.
	MinReplicas, MaxReplicas int
	// BatchCap is the per-replica batch capacity.
	BatchCap int
	// Utilization is busy replica-seconds over ready replica-seconds for
	// the elapsed tick (0 when nothing was ready).
	Utilization float64
	// ArrivalRate is the measured arrival rate over the elapsed tick;
	// NextArrivalRate is the *coming* tick's rate from the trace prescan
	// — foreknowledge only Oracle is entitled to use.
	ArrivalRate, NextArrivalRate float64
	// ReplicaRate is the calibrated full-speed single-replica capacity
	// in req/s.
	ReplicaRate float64
	// Ladder is the configured DVFS ladder, fastest first.
	Ladder []arch.DVFSPoint
}

// Decision is a policy's answer: how many replicas should be powered
// and at what operating point. The controller clamps Replicas to
// [MinReplicas, MaxReplicas] and maps Point onto the ladder (unknown
// points fall back to nominal).
type Decision struct {
	// Replicas is the target powered count.
	Replicas int
	// Point is the operating point for every powered replica.
	Point arch.DVFSPoint
	// InstantBoot skips the scale-up lag — the oracle's documented
	// cheat, meaningless for implementable policies.
	InstantBoot bool
}

// Policy decides the fleet's target each tick.
type Policy interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// Decide maps an observation to a target.
	Decide(Observation) Decision
}

// fscale reads a point's frequency scale with the zero-value-is-nominal
// convention.
func fscale(p arch.DVFSPoint) float64 {
	if p.FScale <= 0 {
		return 1
	}
	return p.FScale
}

// TargetUtilization is the classic hysteresis autoscaler: scale up when
// utilization crosses High (or a backlog forms), scale down when it
// falls below Low, and — separately — shift down the DVFS ladder when
// the queue is empty and the slower clock still leaves headroom. The
// band between Low and High is the hysteresis that stops flapping.
type TargetUtilization struct {
	// Low and High bound the utilization band (defaults 0.3 and 0.8).
	Low, High float64
}

// Name implements Policy.
func (p TargetUtilization) Name() string { return "target-util" }

// Decide implements Policy.
func (p TargetUtilization) Decide(o Observation) Decision {
	lo, hi := p.Low, p.High
	if lo == 0 {
		lo = 0.3
	}
	if hi == 0 {
		hi = 0.8
	}
	target := o.Powered
	if target < 1 {
		target = 1
	}
	if o.Utilization > hi || o.QueueLen >= o.BatchCap {
		target++
	} else if o.Utilization < lo && o.QueueLen == 0 {
		target--
	}
	dec := Decision{Replicas: target}
	if len(o.Ladder) > 0 {
		dec.Point = o.Ladder[0]
		// Downshift only with no backlog: pick the slowest point whose
		// projected utilization (util grows as 1/f) keeps comfortable
		// headroom under the scale-up threshold.
		if o.QueueLen == 0 {
			for i := len(o.Ladder) - 1; i > 0; i-- {
				if o.Utilization/fscale(o.Ladder[i]) <= 0.75*hi {
					dec.Point = o.Ladder[i]
					break
				}
			}
		}
	}
	return dec
}

// QueueDepth sizes the fleet proportionally to outstanding work: target
// replicas = ceil((in-flight + queued) / PerReplica). It reacts faster
// than utilization hysteresis on bursts but sits at the floor whenever
// the queue is empty, so it trades SLO risk during ramp-ups for the
// lowest powered-seconds. Always full speed — it scales capacity with
// replica count, not clock.
type QueueDepth struct {
	// PerReplica is the outstanding-work quantum one replica absorbs
	// (default: the batch capacity).
	PerReplica int
}

// Name implements Policy.
func (p QueueDepth) Name() string { return "queue" }

// Decide implements Policy.
func (p QueueDepth) Decide(o Observation) Decision {
	per := p.PerReplica
	if per == 0 {
		per = o.BatchCap
	}
	if per < 1 {
		per = 1
	}
	work := o.InFlight + o.QueueLen
	target := (work + per - 1) / per
	if target < 1 {
		target = 1
	}
	dec := Decision{Replicas: target}
	if len(o.Ladder) > 0 {
		dec.Point = o.Ladder[0]
	}
	return dec
}

// Oracle is the clairvoyant upper bound: it reads the *next* tick's
// arrival rate from the trace prescan, provisions ceil(rate × Margin /
// replica-rate) replicas with zero boot lag, and picks the slowest DVFS
// point that still covers the demand. No implementable policy beats it;
// the gap between a real policy and Oracle is the price of not knowing
// the future.
type Oracle struct {
	// Margin is the headroom multiplier on the foreseen rate (default
	// 1.25).
	Margin float64
}

// Name implements Policy.
func (p Oracle) Name() string { return "oracle" }

// Decide implements Policy.
func (p Oracle) Decide(o Observation) Decision {
	margin := p.Margin
	if margin == 0 {
		margin = 1.25
	}
	need := o.NextArrivalRate * margin
	target := 1
	if o.ReplicaRate > 0 {
		target = int(math.Ceil(need / o.ReplicaRate))
	}
	if target < 1 {
		target = 1
	}
	if target > o.MaxReplicas {
		target = o.MaxReplicas
	}
	dec := Decision{Replicas: target, InstantBoot: true}
	if len(o.Ladder) > 0 {
		dec.Point = o.Ladder[0]
		for i := len(o.Ladder) - 1; i > 0; i-- {
			if float64(target)*o.ReplicaRate*fscale(o.Ladder[i]) >= need {
				dec.Point = o.Ladder[i]
				break
			}
		}
	}
	return dec
}

// ParsePolicy maps a CLI spelling to its policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "target-util", "targetutil", "util", "utilization":
		return TargetUtilization{}, nil
	case "queue", "queue-depth", "queuedepth":
		return QueueDepth{}, nil
	case "oracle", "clairvoyant":
		return Oracle{}, nil
	}
	return nil, fmt.Errorf("autoscale: unknown policy %q (want target-util|queue|oracle)", s)
}

// Policies lists every scaling policy, in comparison order.
func Policies() []Policy { return []Policy{TargetUtilization{}, QueueDepth{}, Oracle{}} }
