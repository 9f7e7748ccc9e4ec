package numerics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mugi/internal/raceflag"
)

func TestSplitBasic(t *testing.T) {
	// -1.5 = sign 1, mantissa 0b100 (3-bit), exp 0.
	f := Split(-1.5, 3)
	if f.Sign != 1 || f.Mantissa != 4 || f.Exp != 0 || f.Class != ClassNormal {
		t.Fatalf("Split(-1.5,3) = %+v", f)
	}
	if got := f.Value(); got != -1.5 {
		t.Errorf("Value() = %v", got)
	}
	// 6.0 = 1.5 * 2^2.
	f = Split(6, 3)
	if f.Sign != 0 || f.Mantissa != 4 || f.Exp != 2 {
		t.Fatalf("Split(6,3) = %+v", f)
	}
}

func TestSplitSpecials(t *testing.T) {
	if f := Split(0, 3); f.Class != ClassZero || f.Value() != 0 {
		t.Errorf("zero: %+v", f)
	}
	if f := Split(float32(math.Inf(-1)), 3); f.Class != ClassInf || !math.IsInf(f.Value(), -1) {
		t.Errorf("-inf: %+v", f)
	}
	if f := Split(float32(math.NaN()), 3); f.Class != ClassNaN || !math.IsNaN(f.Value()) {
		t.Errorf("nan: %+v", f)
	}
	// Subnormals flush to zero.
	if f := Split(math.Float32frombits(1), 3); f.Class != ClassZero {
		t.Errorf("subnormal: %+v", f)
	}
}

func TestSplitMantissaOverflowCarries(t *testing.T) {
	// 1.9999 with a 3-bit mantissa rounds up to 2.0 = 1.0 * 2^1.
	f := Split(1.9999, 3)
	if f.Mantissa != 0 || f.Exp != 1 {
		t.Fatalf("Split(1.9999,3) = %+v", f)
	}
	if f.Value() != 2.0 {
		t.Errorf("Value() = %v", f.Value())
	}
}

func TestSplitString(t *testing.T) {
	if s := Split(-1.5, 3).String(); s != "1-4-0" {
		t.Errorf("String() = %q", s)
	}
	if s := Split(float32(math.NaN()), 3).String(); s != "nan" {
		t.Errorf("NaN String() = %q", s)
	}
}

func TestSplitRoundTripProperty(t *testing.T) {
	// Property: the reconstructed value has relative error <= 2^-(manBits+1)
	// and preserves the sign and exponent neighborhood.
	for _, manBits := range []int{3, 4, 7} {
		mb := manBits
		f := func(x float32) bool {
			if Classify(x) != ClassNormal {
				return true
			}
			fields := Split(x, mb)
			v := fields.Value()
			rel := math.Abs(v-float64(x)) / math.Abs(float64(x))
			return rel <= math.Ldexp(1, -(mb+1))+1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("manBits=%d: %v", mb, err)
		}
	}
}

func TestSplitSignProperty(t *testing.T) {
	f := func(x float32) bool {
		if Classify(x) != ClassNormal {
			return true
		}
		fields := Split(x, 3)
		return (fields.Sign == 1) == (x < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSplitBF16MatchesManualNarrowing(t *testing.T) {
	f := func(x float32) bool {
		a := SplitBF16(x, 3)
		b := Split(BF16FromFloat32(x).Float32(), 3)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRoundMantissa(t *testing.T) {
	if got := RoundMantissa(1.0625, 3); got != 1.0 {
		// 1.0625 = 1 + 1/16; halfway between 1.0 and 1.125 -> even (1.0).
		t.Errorf("RoundMantissa(1.0625,3) = %v", got)
	}
	if got := RoundMantissa(1.1, 3); got != 1.125 {
		t.Errorf("RoundMantissa(1.1,3) = %v", got)
	}
}

func TestSplitPanicsOnBadManBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Split(1, 0)
}

// splitRef is the float64 Frexp/roundHalfEven field split that Split's
// bit-level rounding replaced, kept as the reference it must match.
func splitRef(x float32, manBits int) Fields {
	f := Fields{ManBits: manBits, Class: Classify(x)}
	if math.Signbit(float64(x)) {
		f.Sign = 1
	}
	switch f.Class {
	case ClassZero, ClassInf, ClassNaN:
		return f
	case ClassSubnormal:
		f.Class = ClassZero
		return f
	}
	frac, exp2 := math.Frexp(math.Abs(float64(x)))
	e := exp2 - 1
	scaled := (frac*2 - 1) * math.Ldexp(1, manBits)
	m := int(roundHalfEven(scaled))
	if m >= 1<<manBits {
		m = 0
		e++
	}
	f.Mantissa = m
	f.Exp = e
	return f
}

// TestSplitMatchesFrexpReference requires Split and SplitExp to agree
// with splitRef field for field on every BF16 word and on a seeded
// sample of float32 words (zeros, subnormals, Inf and NaN included), at
// every mantissa width.
func TestSplitMatchesFrexpReference(t *testing.T) {
	words := []uint32{
		0, 1 << 31, // ±0
		1, 0x007fffff, 0x807fffff, // subnormals
		0x00800000, 0x7f7fffff, 0xff7fffff, // smallest and largest normals
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00001, 0x7f800001, // NaNs
	}
	for c := uint32(0); c < 1<<16; c++ {
		words = append(words, c<<16)
	}
	n := 1 << 20
	if raceflag.Enabled {
		n = 1 << 12
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < n; i++ {
		words = append(words, rng.Uint32())
	}
	for manBits := 1; manBits <= 23; manBits++ {
		for _, w := range words {
			x := math.Float32frombits(w)
			want := splitRef(x, manBits)
			if got := Split(x, manBits); got != want {
				t.Fatalf("Split(%#08x, %d) = %+v, want %+v", w, manBits, got, want)
			}
			exp, normal := SplitExp(x, manBits)
			if normal != (want.Class == ClassNormal) || (normal && exp != want.Exp) {
				t.Fatalf("SplitExp(%#08x, %d) = %d, %v, want %+v", w, manBits, exp, normal, want)
			}
		}
	}
}
