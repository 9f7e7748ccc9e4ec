package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := FromRows([][]float32{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("got %v", c.Data)
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		a := RandNormal(rng, n, n, 1)
		id := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		return MaxAbsDiff(MatMul(a, id), a) == 0 && MaxAbsDiff(MatMul(id, a), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransposeProperty(t *testing.T) {
	// (A·B)^T == B^T·A^T up to float32 rounding.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := RandNormal(rng, m, k, 1)
		b := RandNormal(rng, k, n, 1)
		lhs := MatMul(a, b).T()
		rhs := MatMul(b.T(), a.T())
		if MaxAbsDiff(lhs, rhs) > 1e-5 {
			t.Fatalf("transpose identity violated: %v", MaxAbsDiff(lhs, rhs))
		}
	}
}

func TestMatVecMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 7, 5, 1)
	x := make([]float32, 5)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	col := NewMatrix(5, 1)
	copy(col.Data, x)
	want := MatMul(a, col)
	got := MatVec(a, x)
	for i := range got {
		if got[i] != want.At(i, 0) {
			t.Fatalf("row %d: %v vs %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	for name, f := range map[string]func(){
		"matmul":  func() { MatMul(a, b) },
		"matvec":  func() { MatVec(a, make([]float32, 2)) },
		"diff":    func() { MaxAbsDiff(a, NewMatrix(3, 2)) },
		"negdims": func() { NewMatrix(-1, 2) },
		"ragged":  func() { FromRows([][]float32{{1}, {1, 2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	c := a.Clone()
	c.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("clone aliases original")
	}
}

func TestFrobenius(t *testing.T) {
	a := FromRows([][]float32{{3, 4}})
	if math.Abs(a.Frobenius()-5) > 1e-12 {
		t.Errorf("frobenius = %v", a.Frobenius())
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Errorf("empty: %dx%d", m.Rows, m.Cols)
	}
}

// naiveMatMul is the strided j-outer dot-product loop MatMulInto used
// to be: the bit-level reference for the contiguous blocked loop.
func naiveMatMul(a, b *Matrix) []float32 {
	out := make([]float32, a.Rows*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			acc := 0.0
			for k := 0; k < a.Cols; k++ {
				acc += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out[i*b.Cols+j] = float32(acc)
		}
	}
	return out
}

// spreadMatrix draws entries ±{1, 1.25, 1.5, 1.75}·2^{0 or 30}. Products
// near 2^60 absorb the small ones in a float64 partial sum and then often
// cancel exactly, so any change to the accumulation order shows up in
// the float32 result.
func spreadMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		sign := float64(1 - 2*rng.Intn(2))
		frac := 1 + float64(rng.Intn(4))/4
		m.Data[i] = float32(math.Ldexp(sign*frac, 30*rng.Intn(2)))
	}
	return m
}

// TestMatMulIntoMatchesNaiveLoop checks MatMulInto and MatMulWideInto
// bit-for-bit against the naive loop, into a poisoned dst, over column
// counts that cross the accumulator block.
func TestMatMulIntoMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for cols := 1; cols <= 2*matBlock+2; cols++ {
		a := spreadMatrix(rng, 1+rng.Intn(5), rng.Intn(40))
		b := spreadMatrix(rng, a.Cols, cols)
		want := naiveMatMul(a, b)
		wide := &Wide{Rows: b.Rows, Cols: b.Cols, Data: make([]float64, len(b.Data))}
		for i, v := range b.Data {
			wide.Data[i] = float64(v)
		}
		for name, mul := range map[string]func(dst *Matrix) *Matrix{
			"MatMulInto":     func(dst *Matrix) *Matrix { return MatMulInto(dst, a, b) },
			"MatMulWideInto": func(dst *Matrix) *Matrix { return MatMulWideInto(dst, a, wide) },
		} {
			dst := NewMatrix(a.Rows, b.Cols)
			for i := range dst.Data {
				dst.Data[i] = float32(math.NaN())
			}
			if got := mul(dst); got != dst {
				t.Fatalf("%s must return dst", name)
			}
			for i := range want {
				if math.Float32bits(dst.Data[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s %dx%d·%dx%d element %d: %v != %v",
						name, a.Rows, a.Cols, b.Rows, b.Cols, i, dst.Data[i], want[i])
				}
			}
		}
	}
}

// TestRandNormalWideMatchesRandNormal pins the widened draw to the
// float32 one from the same seed.
func TestRandNormalWideMatchesRandNormal(t *testing.T) {
	m := RandNormal(rand.New(rand.NewSource(33)), 7, 9, 0.5)
	w := RandNormalWide(rand.New(rand.NewSource(33)), 7, 9, 0.5)
	if w.Rows != m.Rows || w.Cols != m.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", w.Rows, w.Cols, m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if w.Data[i] != float64(v) {
			t.Fatalf("element %d: %v != %v", i, w.Data[i], v)
		}
	}
}

func TestMatMulIntoValidatesDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mis-sized dst")
		}
	}()
	MatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(3, 4))
}

// TestRMSNormRowMatchesSeedFormula pins the shared helper to the exact
// formula both the functional decoder and the accuracy proxy used before
// deduplication (sqrt(mean(x²) + 1e-8) with float64 accumulation), so the
// single implementation keeps both call sites byte-identical to the seed.
func TestRMSNormRowMatchesSeedFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(64)
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 3)
		}
		want := append([]float32(nil), x...)
		ss := 0.0
		for _, v := range want {
			ss += float64(v) * float64(v)
		}
		rms := math.Sqrt(ss/float64(len(want)) + 1e-8)
		for i := range want {
			want[i] = float32(float64(want[i]) / rms)
		}
		RMSNormRow(x)
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
				t.Fatalf("trial %d element %d: %v != %v", trial, i, x[i], want[i])
			}
		}
	}
}
