package serve

import (
	"math"
	"strings"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/infer"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/nonlinear"
	"mugi/internal/runner"
)

func chatTrace(t *testing.T, rate float64, n int) Trace {
	t.Helper()
	tr, err := NewTrace(TraceConfig{Kind: Poisson, Rate: rate, Requests: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseConfig() Config {
	return Config{Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.Single}
}

func TestRunCompletesEveryRequest(t *testing.T) {
	tr := chatTrace(t, 2, 40)
	rep, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 40 || rep.Requests != 40 {
		t.Fatalf("completed %d/%d", rep.Completed, rep.Requests)
	}
	if rep.Makespan <= 0 || rep.SustainedRate <= 0 || rep.TokensPerSecond <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
	if rep.PrefillSteps != 40 {
		t.Errorf("%d prefill steps for 40 requests", rep.PrefillSteps)
	}
	if rep.TTFT.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Errorf("percentiles inconsistent: %+v %+v", rep.TTFT, rep.Latency)
	}
	if rep.Latency.P50 < rep.TTFT.P50 {
		t.Error("request latency cannot beat its own TTFT")
	}
	if rep.TotalEnergy <= rep.DynamicEnergy || rep.JoulesPerRequest <= 0 {
		t.Errorf("energy accounting: %+v", rep)
	}
}

func TestRunValidates(t *testing.T) {
	if _, err := Run(baseConfig(), Trace{}); err == nil {
		t.Error("empty trace should fail")
	}
	bad := baseConfig()
	bad.Model.Hidden = 0
	if _, err := Run(bad, chatTrace(t, 1, 4)); err == nil {
		t.Error("invalid model should fail")
	}
	tiny := baseConfig()
	tiny.KVBudgetBytes = 1 // no request can ever fit
	if _, err := Run(tiny, chatTrace(t, 1, 4)); err == nil {
		t.Error("unschedulable request should fail")
	}
	short := baseConfig()
	short.Model = model.WhisperTiny // MaxSeq 1500
	over := Trace{Kind: Poisson, Rate: 1, Requests: []Request{
		{ID: 0, Arrival: 0, Prompt: 1400, Output: 200},
	}}
	if _, err := Run(short, over); err == nil {
		t.Error("request past the model's context window should fail")
	}
	// A model with no declared window still cannot outgrow the int32
	// step-table key.
	unbounded := baseConfig()
	unbounded.Model.MaxSeq = 0
	unbounded.KVBudgetBytes = math.MaxInt64
	huge := Trace{Kind: Poisson, Rate: 1, Requests: []Request{
		{ID: 0, Arrival: 0, Prompt: math.MaxInt32, Output: 1},
	}}
	if _, err := Run(unbounded, huge); err == nil {
		t.Error("request past the step key's context range should fail")
	}
}

// TestRunDeterministicAtAnyParallelism is the PR's acceptance guarantee:
// identical seed + trace render a byte-identical report whether the
// runner's memoization pool is serial or wide.
func TestRunDeterministicAtAnyParallelism(t *testing.T) {
	tr := chatTrace(t, 4, 48)
	cfg := baseConfig()
	defer runner.SetParallelism(0)

	runner.SetParallelism(1)
	runner.ResetCache()
	serialRep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	serial := serialRep.String()

	runner.SetParallelism(8)
	runner.ResetCache()
	parallelRep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if parallel := parallelRep.String(); serial != parallel {
		t.Errorf("serving report diverges across parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	runner.ResetCache()
}

// TestOverloadQueues: pushing the arrival rate far beyond capacity must
// show up as sustained < offered and rising tail latency, while a light
// load keeps up.
func TestOverloadQueues(t *testing.T) {
	// A single 45 nm Mugi(256) node prefills a median chat prompt in ~16 s
	// and decodes ~13 tok/s, so capacity is ~0.05 req/s: 0.015 req/s is a
	// light load, 50 req/s a deep overload.
	cfg := baseConfig()
	light, err := Run(cfg, chatTrace(t, 0.015, 30))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(cfg, chatTrace(t, 50, 30))
	if err != nil {
		t.Fatal(err)
	}
	if light.SustainedRate < light.OfferedRate*0.8 {
		t.Errorf("light load fell behind: offered %.3f sustained %.3f", light.OfferedRate, light.SustainedRate)
	}
	if heavy.SustainedRate > heavy.OfferedRate*0.9 {
		t.Errorf("overload kept up implausibly: offered %.3f sustained %.3f", heavy.OfferedRate, heavy.SustainedRate)
	}
	if heavy.Latency.P99 <= light.Latency.P99 {
		t.Errorf("overload p99 %.3fs not above light-load p99 %.3fs", heavy.Latency.P99, light.Latency.P99)
	}
	if heavy.MeanBatch <= light.MeanBatch {
		t.Errorf("overload mean batch %.2f not above light load %.2f", heavy.MeanBatch, light.MeanBatch)
	}
}

// TestKVBudgetForcesQueueing: shrinking the KV budget below what the
// offered concurrency needs must defer admissions and stretch latency.
func TestKVBudgetForcesQueueing(t *testing.T) {
	tr := chatTrace(t, 50, 30)
	roomy := baseConfig()
	cramped := baseConfig()
	// Room for roughly two max-length chat requests at a time.
	cramped.KVBudgetBytes = KVBytesPerToken(cramped.Model) * int64(2*(2048+512))
	full, err := Run(roomy, tr)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Run(cramped, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tight.KVQueuedRequests == 0 {
		t.Error("cramped KV budget deferred no admissions")
	}
	if tight.PeakKVBytes > cramped.KVBudgetBytes {
		t.Errorf("peak KV %d exceeded budget %d", tight.PeakKVBytes, cramped.KVBudgetBytes)
	}
	// Deferred admission shows up directly as time-to-first-token: a
	// deferred request's prefill cannot start until earlier requests
	// release their KV reservation. (End-to-end p99 is not a reliable
	// discriminator here — under deep overload both configurations
	// saturate and the last completions land within a histogram bucket.)
	if tight.TTFT.P99 <= full.TTFT.P99 {
		t.Errorf("cramped TTFT p99 %.3fs not above roomy TTFT p99 %.3fs", tight.TTFT.P99, full.TTFT.P99)
	}
	if full.KVQueuedRequests != 0 {
		t.Errorf("roomy budget still deferred %d admissions", full.KVQueuedRequests)
	}
}

// TestMeshSpeedsUpServing: the same trace on a 4×4 mesh must sustain at
// least the single-node rate with lower tail latency under load.
func TestMeshSpeedsUpServing(t *testing.T) {
	tr := chatTrace(t, 8, 30)
	single, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	meshCfg := baseConfig()
	meshCfg.Mesh = noc.NewMesh(4, 4)
	mesh, err := Run(meshCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Latency.P99 >= single.Latency.P99 {
		t.Errorf("4x4 p99 %.3fs not below single-node %.3fs", mesh.Latency.P99, single.Latency.P99)
	}
	if mesh.SustainedRate < single.SustainedRate {
		t.Errorf("4x4 sustained %.3f below single-node %.3f", mesh.SustainedRate, single.SustainedRate)
	}
}

// TestKVBytesPerTokenMatchesInferCache pins the scheduler's capacity
// accounting to the functional KV cache it models: one appended token
// must cost exactly infer.KVCache.Bytes' increment.
func TestKVBytesPerTokenMatchesInferCache(t *testing.T) {
	m := model.Config{
		Name: "tiny", Layers: 3, AttnHeads: 4, KVHeads: 2, Hidden: 32, FFN: 64,
		MaxSeq: 16, Activation: nonlinear.SiLU,
	}
	icfg := infer.Config{
		Layers: m.Layers, Heads: m.AttnHeads, KVHeads: m.KVHeads,
		Dim: m.Hidden, FFN: m.FFN, Vocab: 8, MaxSeq: m.MaxSeq,
		Activation: nonlinear.SiLU,
	}
	cache := infer.NewKVCache(icfg)
	kv := make([]float32, m.KVDim())
	for l := 0; l < m.Layers; l++ {
		cache.Append(l, kv, kv)
	}
	if got, want := KVBytesPerToken(m), cache.Bytes(); got != want {
		t.Errorf("KVBytesPerToken = %d, infer.KVCache.Bytes = %d", got, want)
	}
}

func TestReportRendering(t *testing.T) {
	rep, err := Run(baseConfig(), chatTrace(t, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, needle := range []string{"Llama 2 7B", "Mugi (256)", "poisson", "TTFT", "TPOT", "J/request", "sustained"} {
		if !strings.Contains(out, needle) {
			t.Errorf("rendering missing %q:\n%s", needle, out)
		}
	}
}
