package accuracy

import (
	"math"
	"slices"
	"testing"

	"mugi/internal/core"
	"mugi/internal/dist"
	"mugi/internal/nonlinear"
	"mugi/internal/runner"
)

// goldenImpls is the Impl matrix the loss goldens pin: the exact
// reference plus one point of every Fig.-6 approximation scheme, built
// the way the sweeps build them.
func goldenImpls(act nonlinear.Op) []Impl {
	exact := ExactImpl(act)
	vlpAct := core.New(core.LUTSizeConfig(act, 12, 4))
	pwlSM := nonlinear.NewPWLSoftmax(-18, 22)
	pwlAct := nonlinear.NewPWLActivation(act, 5, 22)
	taylor := nonlinear.NewTaylor(nonlinear.Exp, -5, 8)
	return []Impl{
		exact,
		VLPImpl(
			core.LUTSizeConfig(nonlinear.Exp, 16, 4),
			core.LUTSizeConfig(act, 16, 4),
		),
		{Name: "VLP-act", Softmax: exact.Softmax, Act: vlpAct.Approx},
		{
			Name:    "PWL",
			Softmax: func(dst, xs []float64) { nonlinear.Softmax(dst, xs, pwlSM.Approx) },
			Act:     exact.Act,
		},
		{Name: "PWL-act", Softmax: exact.Softmax, Act: pwlAct.Approx},
		{
			Name:    "Taylor",
			Softmax: func(dst, xs []float64) { nonlinear.Softmax(dst, xs, taylor.Approx) },
			Act:     exact.Act,
		},
	}
}

// TestLossGoldenSeed pins Loss bit-for-bit on every proxy family and
// every approximation scheme. The exact and VLP values date from the
// seed implementation, the others from the strided matmul and float64
// field split: a kernel rewrite must keep the forward pass bit-identical.
func TestLossGoldenSeed(t *testing.T) {
	cases := []struct {
		family dist.Family
		// want holds the losses in goldenImpls order.
		want []float64
	}{
		{dist.Llama2, []float64{
			2.1177118031097177, 2.1518492679470471, 2.1238856954289012,
			2.1442908039515451, 2.1209240720323126, 2.8341276873854575,
		}},
		{dist.Whisper, []float64{
			2.1100853504952348, 2.1129385298899961, 2.1094464604339236,
			2.1151861599129216, 2.1062406774876545, 2.1205937784674247,
		}},
		{dist.SwinV2, []float64{
			2.0001586832931229, 1.9909426560935943, 2.0036886642242622,
			1.9957587927647784, 2.0049375514919494, 1.9587333328769772,
		}},
		{dist.ViViT, []float64{
			2.0862914848735783, 2.0934615227168281, 2.1158024269673019,
			2.0793219338757556, 2.069911098707073, 2.1120415351937116,
		}},
	}
	for _, tc := range cases {
		p := NewProxy(DefaultProxy(tc.family))
		for i, impl := range goldenImpls(p.Config().Activation) {
			if got := p.Loss(Uniform(impl)); got != tc.want[i] {
				t.Errorf("%v %s loss %.17g, want %.17g", tc.family, impl.Name, got, tc.want[i])
			}
		}
	}
}

// TestPerLayerTuningGolden pins every step of both Fig.-7 curves (the
// experiment's proxy shapes), chosen eMax and PPL bits alike. Softmax
// selects each row's window itself, so no window scan by the tuned impl
// may move a bit.
func TestPerLayerTuningGolden(t *testing.T) {
	cases := []struct {
		layers int
		eMax   []int
		ppl    []uint64 // math.Float64bits of each step's PPL
	}{
		{6, []int{5, 2, 2, 3, 3, 2, 4}, []uint64{
			0x402948de9c5f4062, 0x402945319faa4ca2, 0x40283bfac4fb49af, 0x402809a5f01b342c,
			0x4027d42d7c0f4a79, 0x4027d7c6affe223b, 0x4027d3f1689db986,
		}},
		{8, []int{5, 2, 3, 2, 2, 3, 3, 3, 4}, []uint64{
			0x402980187d7dd815, 0x4029acf0cd0e7e4b, 0x4029a57e8e4619d1, 0x4029a2aa45332071,
			0x4028f5642644a582, 0x4029136dd8e4dd53, 0x402927d8d2ad22ca, 0x40292a904f6ef8e7,
			0x40292c2fa5fd1868,
		}},
	}
	for _, tc := range cases {
		cfg := DefaultProxy(dist.Llama2)
		cfg.Layers, cfg.SeqLen, cfg.Dim, cfg.FFN = tc.layers, 24, 16, 32
		steps := PerLayerTuning(NewProxy(cfg), 8, -2, 5, 5)
		var eMax []int
		var ppl []uint64
		for _, s := range steps {
			eMax = append(eMax, s.EMax)
			ppl = append(ppl, math.Float64bits(s.PPL))
		}
		if !slices.Equal(eMax, tc.eMax) || !slices.Equal(ppl, tc.ppl) {
			t.Errorf("%d layers: eMax %v ppl %#x, want %v %#x", tc.layers, eMax, ppl, tc.eMax, tc.ppl)
		}
	}
}

// TestLossZeroAlloc asserts a warmed Loss runs entirely out of the
// proxy's scratch pool, for the exact reference, the VLP impl and the
// Fig.-7 per-layer-tuned impl.
func TestLossZeroAlloc(t *testing.T) {
	p := NewProxy(DefaultProxy(dist.Llama2))
	act := p.Config().Activation
	layerEMax := make([]int, p.Config().Layers)
	for l := range layerEMax {
		layerEMax[l] = 2 + l%4
	}
	for _, tc := range []struct {
		name  string
		impls LayerImpls
	}{
		{"exact", Uniform(ExactImpl(act))},
		{"VLP", Uniform(VLPImpl(
			core.LUTSizeConfig(nonlinear.Exp, 16, 4),
			core.LUTSizeConfig(act, 16, 4),
		))},
		{"VLP-tuned", tunedImpls(p, 8, layerEMax)},
	} {
		p.Loss(tc.impls) // warm the pool
		allocs := testing.AllocsPerRun(10, func() {
			p.Loss(tc.impls)
		})
		if allocs != 0 {
			t.Errorf("%s: warmed Loss allocated %v times per run", tc.name, allocs)
		}
	}
}

// TestHeadParallelByteIdentical verifies the opt-in per-head fan-out
// produces bit-identical losses at any runner parallelism (heads write
// disjoint state; the exact impl is stateless and thread-safe).
func TestHeadParallelByteIdentical(t *testing.T) {
	p := NewProxy(DefaultProxy(dist.Llama2))
	impl := Uniform(ExactImpl(p.Config().Activation))
	serial := p.Loss(impl)
	p.SetHeadParallel(true)
	defer p.SetHeadParallel(false)
	for _, workers := range []int{1, 4} {
		runner.SetParallelism(workers)
		if got := p.Loss(impl); got != serial {
			t.Fatalf("parallelism %d: loss %.17g != serial %.17g", workers, got, serial)
		}
	}
	runner.SetParallelism(0)
}

// TestCollectSoftmaxInputsSuspendsHeadParallel guards the collector's
// shared append state against the head fan-out.
func TestCollectSoftmaxInputsSuspendsHeadParallel(t *testing.T) {
	p := NewProxy(DefaultProxy(dist.Llama2))
	p.SetHeadParallel(true)
	defer p.SetHeadParallel(false)
	runner.SetParallelism(4)
	defer runner.SetParallelism(0)
	inputs := p.CollectSoftmaxInputs(4)
	if len(inputs) != p.Config().Layers {
		t.Fatalf("collected %d layers", len(inputs))
	}
	for l, xs := range inputs {
		if len(xs) == 0 {
			t.Fatalf("layer %d collected nothing", l)
		}
	}
	if !p.headParallel {
		t.Fatal("head parallelism not restored after collection")
	}
}
