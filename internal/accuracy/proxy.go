// Package accuracy measures end-to-end model quality under nonlinear
// approximation. The paper evaluates real checkpoints (Llama-2, Whisper,
// SwinV2, ViViT) on a GPU cluster; this reproduction substitutes a small
// deterministic pure-Go transformer ("proxy model") whose attention-score
// and pre-activation distributions are calibrated per model family to the
// published Fig.-4 profiles (see internal/dist). Loss and perplexity deltas
// between the exact nonlinears and each approximation scheme then reproduce
// the *orderings* of Fig. 6 and the per-layer tuning behaviour of Fig. 7.
package accuracy

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mugi/internal/core"
	"mugi/internal/dist"
	"mugi/internal/nonlinear"
	"mugi/internal/runner"
	"mugi/internal/tensor"
)

// ProxyConfig sizes the proxy transformer.
type ProxyConfig struct {
	Family dist.Family
	// Activation is the FFN nonlinearity (SiLU for Llama-2, GELU others).
	Activation nonlinear.Op
	Layers     int
	Heads      int
	Dim        int
	FFN        int
	SeqLen     int
	Vocab      int
	Seed       int64
}

// DefaultProxy returns a proxy sized for fast, stable sweeps.
func DefaultProxy(f dist.Family) ProxyConfig {
	act := nonlinear.GELU
	if f == dist.Llama2 {
		act = nonlinear.SiLU
	}
	return ProxyConfig{
		Family: f, Activation: act,
		Layers: 8, Heads: 4, Dim: 32, FFN: 64, SeqLen: 48, Vocab: 64,
		Seed: 20260322,
	}
}

// Impl packages the nonlinear implementations under test: softmax over a
// score row, and the element-wise FFN activation.
type Impl struct {
	Name    string
	Softmax func(dst, xs []float64)
	Act     func(x float64) float64
}

// ExactImpl is the software reference implementation.
func ExactImpl(act nonlinear.Op) Impl {
	return Impl{
		Name:    "exact",
		Softmax: func(dst, xs []float64) { nonlinear.SoftmaxExact(dst, xs) },
		Act:     func(x float64) float64 { return nonlinear.Exact(act, x) },
	}
}

// ApproxImpl wraps element-wise approximators for softmax-exp and the
// activation into an Impl.
func ApproxImpl(name string, exp, act nonlinear.Approximator) Impl {
	return Impl{
		Name:    name,
		Softmax: func(dst, xs []float64) { nonlinear.Softmax(dst, xs, exp.Approx) },
		Act:     act.Approx,
	}
}

// VLPImpl builds the Mugi implementation: a VLP exp whose sliding window
// core.Approx.Softmax selects per score row by the hardware E-proc max
// policy, plus a VLP activation evaluated in its initial window (the top
// of its LUT).
func VLPImpl(expCfg, actCfg core.Config) Impl {
	expA := core.New(expCfg)
	actA := core.New(actCfg)
	return Impl{
		Name:    "VLP",
		Softmax: func(dst, xs []float64) { expA.Softmax(dst, xs) },
		Act:     actA.Approx,
	}
}

// Proxy is the deterministic transformer used for loss evaluation. All
// weights and the evaluation token stream are fixed by the config seed, so
// loss differences between Impls are purely approximation error.
type Proxy struct {
	cfg   ProxyConfig
	embed *tensor.Matrix // vocab × dim
	// The GEMM weights are drawn as float32 and held widened, so every
	// forward pass reads them without a per-MAC conversion.
	wq      []*tensor.Wide
	wk      []*tensor.Wide
	wv      []*tensor.Wide
	wo      []*tensor.Wide
	w1      []*tensor.Wide // dim × ffn
	w2      []*tensor.Wide // ffn × dim
	wout    *tensor.Wide   // dim × vocab
	tokens  []int
	targets []int
	smProf  dist.Profile

	// scratchMu guards the free list of forward-pass scratch sets. Loss
	// calls borrow a set and return it, so repeated (and concurrent — the
	// Fig.-6 sweeps map cells over the runner pool) evaluations reuse the
	// same matrices instead of reallocating the whole forward state.
	scratchMu sync.Mutex
	scratch   []*fwdScratch

	// headParallel fans the attention heads of each layer across the
	// runner pool (see SetHeadParallel).
	headParallel bool
}

// fwdScratch is one complete set of forward-pass working matrices. Every
// buffer is fully overwritten by forwardInto before being read, so reuse
// across Loss calls cannot leak state between evaluations.
type fwdScratch struct {
	x, q, k, v       *tensor.Matrix
	attnOut, proj    *tensor.Matrix
	hidden, ffnOut   *tensor.Matrix
	logits           *tensor.Matrix
	scores, probs    [][]float64 // per head, so parallel heads stay disjoint
	ctx              [][]float64 // per-head float64 context accumulators
	lossRow, lossPrb []float64
}

func (p *Proxy) newScratch() *fwdScratch {
	cfg := p.cfg
	s := &fwdScratch{
		x:       tensor.NewMatrix(cfg.SeqLen, cfg.Dim),
		q:       tensor.NewMatrix(cfg.SeqLen, cfg.Dim),
		k:       tensor.NewMatrix(cfg.SeqLen, cfg.Dim),
		v:       tensor.NewMatrix(cfg.SeqLen, cfg.Dim),
		attnOut: tensor.NewMatrix(cfg.SeqLen, cfg.Dim),
		proj:    tensor.NewMatrix(cfg.SeqLen, cfg.Dim),
		hidden:  tensor.NewMatrix(cfg.SeqLen, cfg.FFN),
		ffnOut:  tensor.NewMatrix(cfg.SeqLen, cfg.Dim),
		logits:  tensor.NewMatrix(cfg.SeqLen, cfg.Vocab),
		scores:  make([][]float64, cfg.Heads),
		probs:   make([][]float64, cfg.Heads),
		ctx:     make([][]float64, cfg.Heads),
	}
	hd := cfg.Dim / cfg.Heads
	for h := 0; h < cfg.Heads; h++ {
		s.scores[h] = make([]float64, cfg.SeqLen)
		s.probs[h] = make([]float64, cfg.SeqLen)
		s.ctx[h] = make([]float64, hd)
	}
	s.lossRow = make([]float64, cfg.Vocab)
	s.lossPrb = make([]float64, cfg.Vocab)
	return s
}

func (p *Proxy) getScratch() *fwdScratch {
	p.scratchMu.Lock()
	if n := len(p.scratch); n > 0 {
		s := p.scratch[n-1]
		p.scratch = p.scratch[:n-1]
		p.scratchMu.Unlock()
		return s
	}
	p.scratchMu.Unlock()
	return p.newScratch()
}

func (p *Proxy) putScratch(s *fwdScratch) {
	p.scratchMu.Lock()
	p.scratch = append(p.scratch, s)
	p.scratchMu.Unlock()
}

// SetHeadParallel toggles deterministic per-head parallelism: the
// attention heads of each layer are fanned over the experiment runner's
// worker pool. Every head writes only its own attnOut columns and its own
// score/probability rows, so the result is byte-identical to the serial
// walk at any parallelism. The Impl under evaluation must be safe for
// concurrent Softmax calls (ExactImpl is; a shared stateful VLP window is
// not), which is why it is opt-in. SetHeadParallel must not be called
// concurrently with Loss; it is a configuration-time switch.
func (p *Proxy) SetHeadParallel(on bool) { p.headParallel = on }

// NewProxy builds the proxy model; it panics on invalid configs or unknown
// families.
func NewProxy(cfg ProxyConfig) *Proxy {
	if cfg.Layers < 1 || cfg.Dim < 1 || cfg.Heads < 1 || cfg.Dim%cfg.Heads != 0 ||
		cfg.SeqLen < 2 || cfg.Vocab < 2 || cfg.FFN < 1 {
		panic(fmt.Sprintf("accuracy: invalid proxy config %+v", cfg))
	}
	smProf, err := dist.ProfileFor(cfg.Family, nonlinear.Exp)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Proxy{cfg: cfg, smProf: smProf}
	std := 1 / math.Sqrt(float64(cfg.Dim))
	p.embed = tensor.RandNormal(rng, cfg.Vocab, cfg.Dim, 1)
	for l := 0; l < cfg.Layers; l++ {
		p.wq = append(p.wq, tensor.RandNormalWide(rng, cfg.Dim, cfg.Dim, std))
		p.wk = append(p.wk, tensor.RandNormalWide(rng, cfg.Dim, cfg.Dim, std))
		p.wv = append(p.wv, tensor.RandNormalWide(rng, cfg.Dim, cfg.Dim, std))
		p.wo = append(p.wo, tensor.RandNormalWide(rng, cfg.Dim, cfg.Dim, std))
		p.w1 = append(p.w1, tensor.RandNormalWide(rng, cfg.Dim, cfg.FFN, std))
		p.w2 = append(p.w2, tensor.RandNormalWide(rng, cfg.FFN, cfg.Dim, std/2))
	}
	p.wout = tensor.RandNormalWide(rng, cfg.Dim, cfg.Vocab, std)
	p.tokens = make([]int, cfg.SeqLen+1)
	for i := range p.tokens {
		p.tokens[i] = rng.Intn(cfg.Vocab)
	}
	// Self-distillation targets: the exact model's own next-token argmax.
	// A trained checkpoint is confidently calibrated on its data, so
	// approximation error shows up as perplexity increase; the proxy
	// recreates that by treating the exact forward pass as the calibrated
	// reference that perturbations can only degrade on average.
	s := p.getScratch()
	defer p.putScratch(s)
	logits := p.forward(s, Uniform(ExactImpl(cfg.Activation)), false)
	p.targets = make([]int, cfg.SeqLen)
	for t := 0; t < cfg.SeqLen; t++ {
		best, bestV := 0, float32(math.Inf(-1))
		for j := 0; j < cfg.Vocab; j++ {
			if logits.At(t, j) > bestV {
				best, bestV = j, logits.At(t, j)
			}
		}
		p.targets[t] = best
	}
	return p
}

// Config returns the proxy configuration.
func (p *Proxy) Config() ProxyConfig { return p.cfg }

// rmsNorm rescales every row to unit RMS, the normalization that keeps the
// residual stream bounded across layers (the proxy's stand-in for RMSNorm /
// LayerNorm, which the paper's §7.1 notes run on the vector unit and are
// not approximated). The per-row math is the stack's shared helper, the
// same implementation the functional decoder applies to its residual.
func rmsNorm(x *tensor.Matrix) {
	for i := 0; i < x.Rows; i++ {
		tensor.RMSNormRow(x.Row(i))
	}
}

// depth returns the normalized depth of layer l.
func (p *Proxy) depth(l int) float64 {
	if p.cfg.Layers == 1 {
		return 0
	}
	return float64(l) / float64(p.cfg.Layers-1)
}

// calibrateScores standardizes a raw score row and maps it onto the
// family's published logit distribution at this depth, so the softmax
// inputs the Impl sees match the Fig.-4 profile.
func (p *Proxy) calibrateScores(row []float64, depthFrac float64) {
	mean, std := 0.0, 0.0
	for _, v := range row {
		mean += v
	}
	mean /= float64(len(row))
	for _, v := range row {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(row)))
	if std == 0 {
		std = 1
	}
	tMean := p.smProf.MeanStart + depthFrac*(p.smProf.MeanEnd-p.smProf.MeanStart)
	tStd := p.smProf.StdStart + depthFrac*(p.smProf.StdEnd-p.smProf.StdStart)
	for i, v := range row {
		row[i] = tMean + (v-mean)/std*tStd
	}
}

// LayerImpls supplies a (possibly different) Impl per layer, the hook the
// Fig.-7 per-layer tuning uses. A uniform Impl can be lifted with Uniform.
type LayerImpls func(layer int) Impl

// Uniform uses the same Impl on every layer.
func Uniform(impl Impl) LayerImpls {
	return func(int) Impl { return impl }
}

// Loss runs the proxy forward pass with the given per-layer nonlinear
// implementations and returns the mean cross-entropy against the exact
// model's self-distillation targets. All working matrices come from the
// proxy's scratch pool, so a warmed Loss performs zero steady-state
// allocations.
func (p *Proxy) Loss(impls LayerImpls) float64 {
	return p.loss(impls, p.headParallel)
}

// loss is Loss with the head fan-out decided by the caller, so
// CollectSoftmaxInputs can force a serial pass without mutating shared
// proxy state under concurrent Loss calls.
func (p *Proxy) loss(impls LayerImpls, headParallel bool) float64 {
	cfg := p.cfg
	s := p.getScratch()
	defer p.putScratch(s)
	logits := p.forward(s, impls, headParallel)
	loss := 0.0
	row, prob := s.lossRow, s.lossPrb
	for t := 0; t < cfg.SeqLen; t++ {
		for j := 0; j < cfg.Vocab; j++ {
			row[j] = float64(logits.At(t, j))
		}
		nonlinear.SoftmaxExact(prob, row)
		pTarget := prob[p.targets[t]]
		if pTarget < 1e-12 {
			pTarget = 1e-12
		}
		loss -= math.Log(pTarget)
	}
	return loss / float64(cfg.SeqLen)
}

// forward runs the transformer in the given scratch set and returns the
// output logits (valid until the scratch is reused). The attention loops
// hoist contiguous head rows and accumulate the context in row-major
// order for cache locality; per output element the float operation
// sequence is unchanged, so results are bit-identical to the seed.
func (p *Proxy) forward(s *fwdScratch, impls LayerImpls, headParallel bool) *tensor.Matrix {
	cfg := p.cfg
	seq := cfg.SeqLen
	x := s.x
	for t := 0; t < seq; t++ {
		copy(x.Row(t), p.embed.Row(p.tokens[t]))
	}
	for l := 0; l < cfg.Layers; l++ {
		impl := impls(l)
		df := p.depth(l)
		tensor.MatMulWideInto(s.q, x, p.wq[l])
		tensor.MatMulWideInto(s.k, x, p.wk[l])
		tensor.MatMulWideInto(s.v, x, p.wv[l])
		if headParallel {
			// The closure escapes into the pool; the serial path below
			// stays allocation-free by calling the method directly.
			runner.Map(cfg.Heads, func(h int) { p.runHead(s, impl, df, h) })
		} else {
			for h := 0; h < cfg.Heads; h++ {
				p.runHead(s, impl, df, h)
			}
		}
		proj := tensor.MatMulWideInto(s.proj, s.attnOut, p.wo[l])
		for i := range x.Data {
			x.Data[i] += proj.Data[i]
		}
		rmsNorm(x)
		hidden := tensor.MatMulWideInto(s.hidden, x, p.w1[l])
		for i := range hidden.Data {
			hidden.Data[i] = float32(impl.Act(float64(hidden.Data[i])))
		}
		ffnOut := tensor.MatMulWideInto(s.ffnOut, hidden, p.w2[l])
		for i := range x.Data {
			x.Data[i] += ffnOut.Data[i]
		}
		rmsNorm(x)
	}
	return tensor.MatMulWideInto(s.logits, x, p.wout)
}

// runHead computes one attention head over the scratch's q/k/v matrices,
// writing only its own attnOut columns and touching only its own per-head
// score/probability/context rows — the disjointness that makes per-head
// parallelism deterministic. The loops hoist contiguous head rows (scores)
// and walk the value rows j-outer (context) for cache locality; each
// output element's float accumulation order is exactly the seed's, so
// results are bit-identical.
func (p *Proxy) runHead(s *fwdScratch, impl Impl, df float64, h int) {
	cfg := p.cfg
	seq := cfg.SeqLen
	hd := cfg.Dim / cfg.Heads
	sqrtHD := math.Sqrt(float64(hd))
	off := h * hd
	q, k, v, attnOut := s.q, s.k, s.v, s.attnOut
	scores, probs, ctx := s.scores[h], s.probs[h], s.ctx[h]
	for i := 0; i < seq; i++ {
		qrow := q.Row(i)[off : off+hd]
		for j := 0; j < seq; j++ {
			krow := k.Row(j)[off : off+hd]
			acc := 0.0
			for d, qv := range qrow {
				acc += float64(qv) * float64(krow[d])
			}
			scores[j] = acc / sqrtHD
		}
		p.calibrateScores(scores, df)
		impl.Softmax(probs, scores)
		for d := range ctx {
			ctx[d] = 0
		}
		for j := 0; j < seq; j++ {
			pj := probs[j]
			vrow := v.Row(j)[off : off+hd]
			for d, vv := range vrow {
				ctx[d] += pj * float64(vv)
			}
		}
		out := attnOut.Row(i)[off : off+hd]
		for d := range ctx {
			out[d] = float32(ctx[d])
		}
	}
}

// Perplexity is exp(Loss).
func (p *Proxy) Perplexity(impls LayerImpls) float64 {
	return math.Exp(p.Loss(impls))
}

// CollectSoftmaxInputs runs the exact forward pass and gathers the
// calibrated score rows per layer — the samples the window tuner consumes.
// The collector closure appends to shared state, so this pass always runs
// with heads serial, regardless of SetHeadParallel (forced per call rather
// than by mutating the shared flag, which would race with concurrent Loss
// evaluations).
func (p *Proxy) CollectSoftmaxInputs(maxRowsPerLayer int) [][]float64 {
	out := make([][]float64, p.cfg.Layers)
	cur := -1
	counts := make([]int, p.cfg.Layers)
	impl := ExactImpl(p.cfg.Activation)
	collector := func(layer int) Impl {
		cur = layer
		return Impl{
			Name: "collect",
			Softmax: func(dst, xs []float64) {
				if counts[cur] < maxRowsPerLayer {
					// Store max-subtracted inputs, what the hardware sees.
					m := xs[0]
					for _, v := range xs {
						if v > m {
							m = v
						}
					}
					for _, v := range xs {
						out[cur] = append(out[cur], v-m)
					}
					counts[cur]++
				}
				impl.Softmax(dst, xs)
			},
			Act: impl.Act,
		}
	}
	p.loss(collector, false)
	return out
}
