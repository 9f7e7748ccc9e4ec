package autoscale

import (
	"math"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/serve"
)

// TestSingleReplicaMatchesServe is the cross-engine equivalence gate: one
// always-on replica on a nominal-only ladder is exactly internal/serve's
// scheduler, so the controller's run must reproduce serve.RunStream bit
// for bit — the same step counts, batch occupancy, latency populations
// and dynamic joules — on every trace shape, including a KV-bound one.
func TestSingleReplicaMatchesServe(t *testing.T) {
	traces := []struct {
		name     string
		tc       serve.TraceConfig
		kvBudget int64 // 0: the default budget; set: the trace must hit it
	}{
		{"poisson", serve.TraceConfig{Kind: serve.Poisson, Rate: 0.5, Requests: 300, Seed: 3}, 0},
		{"bursty", serve.TraceConfig{Kind: serve.Bursty, Rate: 0.5, Requests: 300, Seed: 5}, 0},
		{"diurnal", serve.TraceConfig{Kind: serve.Diurnal, Rate: 0.5, Requests: 300, Seed: 7, Period: 600}, 0},
		{"rag kv-bound", serve.TraceConfig{Kind: serve.Poisson, Rate: 2, Requests: 200, Seed: 9, Lengths: serve.RAGLengths()}, 2 << 30},
	}
	for _, tt := range traces {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseCfg()
			cfg.MinReplicas, cfg.MaxReplicas = 1, 1
			cfg.Ladder = []arch.DVFSPoint{{}}
			cfg.Replica.KVBudgetBytes = tt.kvBudget
			got, err := Run(cfg, tt.tc)
			if err != nil {
				t.Fatal(err)
			}
			src, err := serve.NewStream(tt.tc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := serve.RunStream(cfg.Replica, src)
			if err != nil {
				t.Fatal(err)
			}
			if tt.kvBudget > 0 && want.KVQueuedRequests == 0 {
				t.Fatalf("trace never hit the KV budget — the KV-bound case proves nothing")
			}
			if got.Completed != want.Completed || got.PrefillSteps != want.PrefillSteps ||
				got.DecodeSteps != want.DecodeSteps || got.MeanBatch != want.MeanBatch {
				t.Errorf("steps diverge: controller completed %d, %d prefill, %d decode, mean batch %v; serve %d, %d, %d, %v",
					got.Completed, got.PrefillSteps, got.DecodeSteps, got.MeanBatch,
					want.Completed, want.PrefillSteps, want.DecodeSteps, want.MeanBatch)
			}
			if got.TTFT != want.TTFT || got.Latency != want.Latency {
				t.Errorf("latency diverges: controller ttft %+v latency %+v; serve ttft %+v latency %+v",
					got.TTFT, got.Latency, want.TTFT, want.Latency)
			}
			if math.Float64bits(got.DynamicEnergy) != math.Float64bits(want.DynamicEnergy) {
				t.Errorf("dynamic energy diverges: controller %v J, serve %v J", got.DynamicEnergy, want.DynamicEnergy)
			}
		})
	}
}
