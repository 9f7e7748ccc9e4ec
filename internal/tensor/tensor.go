// Package tensor provides the small dense linear-algebra substrate the
// reproduction needs: row-major float32 matrices, reference GEMM/GEMV, and
// deterministic random initialisation. It exists so the VLP engines and the
// accuracy proxy have an exact reference to be validated against.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Wide is a dense row-major float64 matrix: a constant right-hand GEMM
// operand held widened once, so MatMulWideInto reads it without a
// per-MAC conversion. Widening a float32 is exact, so a Wide built from
// float32 values multiplies bit-identically to the Matrix it came from.
type Wide struct {
	Rows, Cols int
	Data       []float64
}

// MatMul computes a×b with float64 accumulation, the exact reference for
// the VLP GEMM engines. Panics on shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	return MatMulInto(NewMatrix(a.Rows, b.Cols), a, b)
}

// MatMulInto computes a×b into dst (which must be a.Rows × b.Cols) and
// returns dst. Each output is a float64 sum over k in ascending order,
// rounded once to float32; dst is fully overwritten and nothing is
// allocated.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	return matMulInto(dst, a, b.Data, b.Rows, b.Cols)
}

// MatMulWideInto is MatMulInto with a widened right-hand operand; the
// results are bit-identical to MatMulInto on the float32 original. It is
// the path the accuracy proxy runs against its constant weights.
func MatMulWideInto(dst, a *Matrix, b *Wide) *Matrix {
	return matMulInto(dst, a, b.Data, b.Rows, b.Cols)
}

// matBlock is the number of output columns one accumulator block holds.
const matBlock = 64

// matMulInto is the one GEMM loop behind MatMulInto and MatMulWideInto.
// It walks i-k-j so both operands stream contiguously, accumulating a
// block of output columns in float64 on the stack. Each output still
// takes exactly the steps acc += a[i,k]·b[k,j] for k ascending from
// acc = 0 (the products of widened float32s are exact in float64, so
// fused multiply-adds round identically), so results are bit-identical
// to the naive j-outer dot product.
//
//mugi:noalloc
func matMulInto[T float32 | float64](dst, a *Matrix, b []T, bRows, bCols int) *Matrix {
	if a.Cols != bRows {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d", a.Rows, a.Cols, bRows, bCols))
	}
	if dst.Rows != a.Rows || dst.Cols != bCols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, bCols))
	}
	var block [matBlock]float64
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		out := dst.Row(i)
		for j0 := 0; j0 < bCols; j0 += matBlock {
			acc := block[:min(matBlock, bCols-j0)]
			clear(acc)
			for k, av32 := range arow {
				// Widened once per k: converting inside the j loop would
				// chain iterations through the conversion's register.
				av := float64(av32)
				brow := b[k*bCols+j0:][:len(acc)]
				for j, bv := range brow {
					acc[j] += av * float64(bv)
				}
			}
			for j, v := range acc {
				out[j0+j] = float32(v)
			}
		}
	}
	return dst
}

// RMSNormRow rescales x in place to unit RMS with the stack's shared
// epsilon. It is the single RMSNorm implementation behind both the
// functional decoder and the accuracy proxy (the paper's §7.1 notes
// normalization runs on the vector unit and is not approximated).
func RMSNormRow(x []float32) {
	ss := 0.0
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	rms := math.Sqrt(ss/float64(len(x)) + 1e-8)
	for i := range x {
		x[i] = float32(float64(x[i]) / rms)
	}
}

// MatVec computes a×x for a vector x.
func MatVec(a *Matrix, x []float32) []float32 {
	if a.Cols != len(x) {
		panic("tensor: MatVec shape mismatch")
	}
	out := make([]float32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		acc := 0.0
		row := a.Row(i)
		for k := range x {
			acc += float64(row[k]) * float64(x[k])
		}
		out[i] = float32(acc)
	}
	return out
}

// RandNormal fills a new rows×cols matrix with N(0, std²) samples from a
// deterministic source.
func RandNormal(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	m := NewMatrix(rows, cols)
	fillNormal(rng, m.Data, std)
	return m
}

// RandNormalWide is RandNormal held widened: the same float32 samples
// from the same draws of rng, stored as float64.
func RandNormalWide(rng *rand.Rand, rows, cols int, std float64) *Wide {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	w := &Wide{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	fillNormal(rng, w.Data, std)
	return w
}

// fillNormal draws one float32-rounded N(0, std²) sample per element.
func fillNormal[T float32 | float64](rng *rand.Rand, data []T, std float64) {
	for i := range data {
		data[i] = T(float32(rng.NormFloat64() * std))
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > max {
			max = d
		}
	}
	return max
}

// Frobenius returns the Frobenius norm of m.
func (m *Matrix) Frobenius() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
