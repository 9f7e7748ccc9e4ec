package autoscale

import (
	"testing"

	"mugi/internal/arch"
)

func obs() Observation {
	return Observation{
		Tick: 60, Powered: 2, Ready: 2,
		MinReplicas: 1, MaxReplicas: 8, BatchCap: 32,
		ReplicaRate: 1,
		Ladder:      arch.DVFSLadder(),
	}
}

func TestTargetUtilizationHysteresis(t *testing.T) {
	p := TargetUtilization{}
	hot := obs()
	hot.Utilization = 0.95
	if d := p.Decide(hot); d.Replicas != 3 {
		t.Errorf("hot fleet: target %d, want scale-up to 3", d.Replicas)
	}
	backlog := obs()
	backlog.QueueLen = 40
	if d := p.Decide(backlog); d.Replicas != 3 {
		t.Errorf("backlog: target %d, want scale-up to 3", d.Replicas)
	}
	cold := obs()
	cold.Utilization = 0.1
	if d := p.Decide(cold); d.Replicas != 1 {
		t.Errorf("cold fleet: target %d, want scale-down to 1", d.Replicas)
	}
	band := obs()
	band.Utilization = 0.5
	if d := p.Decide(band); d.Replicas != 2 {
		t.Errorf("in-band fleet: target %d, want hold at 2", d.Replicas)
	}
}

func TestTargetUtilizationDVFS(t *testing.T) {
	p := TargetUtilization{}
	// Deep trough: slow enough that even the slowest point has headroom.
	cold := obs()
	cold.Utilization = 0.1
	if d := p.Decide(cold); d.Point.Name != "p50" {
		t.Errorf("cold fleet picked %s, want p50", d.Point)
	}
	// Mid load: p50 would be over the band, p75 fits.
	mid := obs()
	mid.Utilization = 0.4
	if d := p.Decide(mid); d.Point.Name != "p75" {
		t.Errorf("mid fleet picked %s, want p75", d.Point)
	}
	// Backlog: never downshift with queued work.
	backlog := obs()
	backlog.Utilization = 0.1
	backlog.QueueLen = 5
	if d := p.Decide(backlog); !d.Point.IsNominal() {
		t.Errorf("backlogged fleet picked %s, want full speed", d.Point)
	}
}

func TestQueueDepthProportional(t *testing.T) {
	p := QueueDepth{}
	o := obs()
	o.InFlight = 40
	o.QueueLen = 30
	d := p.Decide(o)
	if d.Replicas != 3 { // ceil(70/32)
		t.Errorf("70 outstanding / 32 per replica: target %d, want 3", d.Replicas)
	}
	if !d.Point.IsNominal() {
		t.Errorf("queue policy must run full speed, picked %s", d.Point)
	}
	idle := obs()
	if d := p.Decide(idle); d.Replicas != 1 {
		t.Errorf("idle fleet: target %d, want floor 1", d.Replicas)
	}
}

func TestOracleProvisionsForNextTick(t *testing.T) {
	p := Oracle{}
	o := obs()
	o.NextArrivalRate = 2.4 // × 1.25 margin = 3 → 3 replicas at rate 1
	d := p.Decide(o)
	if d.Replicas != 3 {
		t.Errorf("foreseen rate 2.4: target %d, want 3", d.Replicas)
	}
	if !d.InstantBoot {
		t.Errorf("oracle must boot instantly")
	}
	// Night: one replica at the slowest point that still covers demand.
	night := obs()
	night.NextArrivalRate = 0.3
	d = p.Decide(night)
	if d.Replicas != 1 {
		t.Errorf("foreseen rate 0.3: target %d, want 1", d.Replicas)
	}
	if d.Point.Name != "p50" { // 1 × 1 req/s × 0.5 = 0.5 ≥ 0.375
		t.Errorf("night point %s, want p50", d.Point)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.Name())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.Name(), err)
		}
		if got.Name() != p.Name() {
			t.Errorf("round trip %q -> %q", p.Name(), got.Name())
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Errorf("ParsePolicy accepted garbage")
	}
}
