package accuracy

import (
	"fmt"
	"math"

	"mugi/internal/core"
	"mugi/internal/nonlinear"
	"mugi/internal/runner"
)

// Heatmap is one Fig.-6 panel: perplexity (or loss) over a 2D config grid.
type Heatmap struct {
	Name     string
	RowLabel string
	ColLabel string
	RowVals  []float64
	ColVals  []float64
	// Values[r][c] is the metric at (RowVals[r], ColVals[c]).
	Values [][]float64
}

// Best locates the minimal cell.
func (h Heatmap) Best() (row, col int, val float64) {
	val = math.Inf(1)
	for r := range h.Values {
		for c := range h.Values[r] {
			if h.Values[r][c] < val {
				row, col, val = r, c, h.Values[r][c]
			}
		}
	}
	return row, col, val
}

func newHeatmap(name, rowLabel, colLabel string, rows, cols []float64) Heatmap {
	h := Heatmap{Name: name, RowLabel: rowLabel, ColLabel: colLabel, RowVals: rows, ColVals: cols}
	h.Values = make([][]float64, len(rows))
	for r := range h.Values {
		h.Values[r] = make([]float64, len(cols))
	}
	return h
}

// mapCells evaluates every heatmap cell across the runner's worker pool.
// Cells are independent (each builds its own approximators and the proxy
// forward pass is read-only over the weights), and each writes only its own
// index-addressed slot, so the filled heatmap is identical at any
// parallelism level.
func mapCells(h *Heatmap, eval func(r, c int) float64) {
	cols := len(h.ColVals)
	runner.Map(len(h.RowVals)*cols, func(i int) {
		r, c := i/cols, i%cols
		h.Values[r][c] = eval(r, c)
	})
}

func ints(vals []int) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(v)
	}
	return out
}

// SweepVLPSoftmax evaluates proxy perplexity with VLP softmax (exact
// activation) over LUT sizes × LUT top exponents — the "VLP SM" panel of
// Fig. 6.
func SweepVLPSoftmax(p *Proxy, lutSizes, eMaxes []int) Heatmap {
	h := newHeatmap("VLP SM", "LUT Size", "Max Exp", ints(lutSizes), ints(eMaxes))
	act := ExactImpl(p.cfg.Activation)
	mapCells(&h, func(r, c int) float64 {
		impl := VLPImpl(
			core.LUTSizeConfig(nonlinear.Exp, lutSizes[r], eMaxes[c]),
			core.LUTSizeConfig(p.cfg.Activation, lutSizes[r], eMaxes[c]),
		)
		impl.Act = act.Act // softmax panel: activation stays exact
		return p.Perplexity(Uniform(impl))
	})
	return h
}

// SweepVLPActivation evaluates VLP SiLU/GELU (exact softmax) — "VLP S/G".
func SweepVLPActivation(p *Proxy, lutSizes, eMaxes []int) Heatmap {
	h := newHeatmap("VLP S/G", "LUT Size", "Max Exp", ints(lutSizes), ints(eMaxes))
	exact := ExactImpl(p.cfg.Activation)
	mapCells(&h, func(r, c int) float64 {
		a := core.New(core.LUTSizeConfig(p.cfg.Activation, lutSizes[r], eMaxes[c]))
		impl := Impl{Name: "VLP-act", Softmax: exact.Softmax, Act: a.Approx}
		return p.Perplexity(Uniform(impl))
	})
	return h
}

// SweepPWLSoftmax evaluates PWL softmax over segment counts × segment
// ranges ("PWL SM"). Ranges are negative (softmax covers [sr, 0]).
func SweepPWLSoftmax(p *Proxy, segments []int, ranges []float64) Heatmap {
	h := newHeatmap("PWL SM", "Segments", "Segment Range", ints(segments), ranges)
	exact := ExactImpl(p.cfg.Activation)
	mapCells(&h, func(r, c int) float64 {
		pwl := nonlinear.NewPWLSoftmax(ranges[c], segments[r])
		impl := Impl{
			Name:    "PWL",
			Softmax: func(dst, xs []float64) { nonlinear.Softmax(dst, xs, pwl.Approx) },
			Act:     exact.Act,
		}
		return p.Perplexity(Uniform(impl))
	})
	return h
}

// SweepPWLActivation evaluates PWL SiLU/GELU over segments × symmetric
// ranges ("PWL S/G").
func SweepPWLActivation(p *Proxy, segments []int, ranges []float64) Heatmap {
	h := newHeatmap("PWL S/G", "Segments", "Segment Range", ints(segments), ranges)
	exact := ExactImpl(p.cfg.Activation)
	mapCells(&h, func(r, c int) float64 {
		pwl := nonlinear.NewPWLActivation(p.cfg.Activation, ranges[c], segments[r])
		impl := Impl{Name: "PWL-act", Softmax: exact.Softmax, Act: pwl.Approx}
		return p.Perplexity(Uniform(impl))
	})
	return h
}

// SweepTaylorSoftmax evaluates Taylor softmax over degrees × expansion
// centers ("Taylor SM").
func SweepTaylorSoftmax(p *Proxy, degrees []int, centers []float64) Heatmap {
	h := newHeatmap("Taylor SM", "Degrees", "Degree Center", ints(degrees), centers)
	exact := ExactImpl(p.cfg.Activation)
	mapCells(&h, func(r, c int) float64 {
		ta := nonlinear.NewTaylor(nonlinear.Exp, centers[c], degrees[r])
		impl := Impl{
			Name:    "Taylor",
			Softmax: func(dst, xs []float64) { nonlinear.Softmax(dst, xs, ta.Approx) },
			Act:     exact.Act,
		}
		return p.Perplexity(Uniform(impl))
	})
	return h
}

// FullVLPPerplexity evaluates the combined configuration (VLP softmax +
// VLP activation), the "Full PPL" row of Fig. 6.
func FullVLPPerplexity(p *Proxy, lutSize, eMaxSM, eMaxAct int) float64 {
	impl := VLPImpl(
		core.LUTSizeConfig(nonlinear.Exp, lutSize, eMaxSM),
		core.LUTSizeConfig(p.cfg.Activation, lutSize, eMaxAct),
	)
	return p.Perplexity(Uniform(impl))
}

// TuningStep is one point of the Fig.-7 per-layer tuning curve.
type TuningStep struct {
	// Layer is the highest layer tuned so far (-1 = untuned baseline).
	Layer int
	// EMax is the LUT top exponent chosen for that layer.
	EMax int
	// PPL is the proxy perplexity with layers 0..Layer tuned.
	PPL float64
}

// PerLayerTuning reproduces Fig. 7: starting from one untuned LUT top
// exponent on every layer, it tunes each layer's LUT top exponent
// progressively (greedy, front to back, core.TuneWindow over that layer's
// own collected softmax inputs), re-evaluating perplexity after each
// layer. Within a layer's LUT the per-row sliding window is always the
// max policy core.Approx.Softmax applies. The returned curve is
// non-increasing apart from noise.
func PerLayerTuning(p *Proxy, lutSize, searchLo, searchHi, untunedEMax int) []TuningStep {
	if searchLo > searchHi {
		panic(fmt.Sprintf("accuracy: bad search range [%d,%d]", searchLo, searchHi))
	}
	inputs := p.CollectSoftmaxInputs(16)
	layerEMax := make([]int, p.cfg.Layers)
	for i := range layerEMax {
		layerEMax[i] = untunedEMax
	}
	steps := []TuningStep{{Layer: -1, EMax: untunedEMax, PPL: p.Perplexity(tunedImpls(p, lutSize, layerEMax))}}
	for l := 0; l < p.cfg.Layers; l++ {
		best, _ := core.TuneWindow(nonlinear.Exp, lutSize, inputs[l], searchLo, searchHi)
		layerEMax[l] = best
		steps = append(steps, TuningStep{Layer: l, EMax: best, PPL: p.Perplexity(tunedImpls(p, lutSize, layerEMax))})
	}
	return steps
}

// tunedImpls is one point of the Fig.-7 curve: on layer l, a VLP softmax
// over a lutSize-exponent LUT topped at layerEMax[l]; the activation
// stays exact.
func tunedImpls(p *Proxy, lutSize int, layerEMax []int) LayerImpls {
	act := ExactImpl(p.cfg.Activation).Act
	impls := make([]Impl, len(layerEMax))
	for l, eMax := range layerEMax {
		a := core.New(core.LUTSizeConfig(nonlinear.Exp, lutSize, eMax))
		impls[l] = Impl{
			Name:    "VLP-tuned",
			Softmax: func(dst, xs []float64) { a.Softmax(dst, xs) },
			Act:     act,
		}
	}
	return func(l int) Impl { return impls[l] }
}
