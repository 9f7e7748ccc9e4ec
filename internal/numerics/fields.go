package numerics

import (
	"fmt"
	"math"
)

// Fields is the sign-mantissa-exponent (S-M-E) split of a floating-point
// input, as produced by the Mugi M-proc and E-proc blocks (paper §4, phase 1
// "input field split"). Mantissa is the rounded magnitude *without* the
// implicit leading one; Exp is the unbiased power-of-two exponent.
type Fields struct {
	// Sign is 0 for non-negative, 1 for negative inputs.
	Sign int
	// Mantissa is the rounded mantissa magnitude in [0, 2^ManBits).
	Mantissa int
	// Exp is the unbiased exponent. For the rounded value v,
	// |v| = (1 + Mantissa/2^ManBits) * 2^Exp.
	Exp int
	// ManBits is the retained mantissa width after rounding.
	ManBits int
	// Class flags special values; when Class != ClassNormal the remaining
	// fields are unspecified and the PP block muxes a special output.
	Class Class
}

// Value reconstructs the approximate value represented by the fields.
func (f Fields) Value() float64 {
	switch f.Class {
	case ClassZero:
		return 0
	case ClassInf:
		if f.Sign == 1 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	case ClassNaN:
		return math.NaN()
	}
	v := (1 + float64(f.Mantissa)/float64(int(1)<<f.ManBits)) * math.Ldexp(1, f.Exp)
	if f.Sign == 1 {
		return -v
	}
	return v
}

// String renders the split in the paper's S-M-E notation.
func (f Fields) String() string {
	if f.Class != ClassNormal {
		return f.Class.String()
	}
	return fmt.Sprintf("%d-%d-%d", f.Sign, f.Mantissa, f.Exp)
}

// Split performs the input field split with the mantissa rounded to manBits
// bits (round-to-nearest-even on the dropped bits, with mantissa overflow
// carrying into the exponent). Subnormal float32 inputs are flushed to zero,
// matching the hardware, which treats anything below the LUT window as an
// underflow.
//
// manBits must be in [1, 23].
func Split(x float32, manBits int) Fields {
	if manBits < 1 || manBits > 23 {
		panic(fmt.Sprintf("numerics: Split manBits %d out of range [1,23]", manBits))
	}
	bits := math.Float32bits(x)
	f := Fields{Sign: int(bits >> 31), ManBits: manBits}
	switch biased := bits >> 23 & 0xff; {
	case biased == 0xff && bits&0x7fffff != 0:
		f.Class = ClassNaN
	case biased == 0xff:
		f.Class = ClassInf
	case biased == 0:
		f.Class = ClassZero // zero, or a subnormal flushed to zero
	default:
		r := roundedBits(bits, manBits)
		f.Mantissa = int(r & (1<<manBits - 1))
		f.Exp = int(r>>manBits) - 127
	}
	return f
}

// SplitExp returns the Exp field Split(x, manBits) would produce, and
// whether x is a normal input (Split's Class == ClassNormal). It is the
// exponent-only split the window scans run over every operand.
//
// manBits must be in [1, 23].
//
//mugi:noalloc
func SplitExp(x float32, manBits int) (exp int, normal bool) {
	if manBits < 1 || manBits > 23 {
		panic(fmt.Sprintf("numerics: Split manBits %d out of range [1,23]", manBits))
	}
	bits := math.Float32bits(x)
	if biased := bits >> 23 & 0xff; biased == 0 || biased == 0xff {
		return 0, false
	}
	return int(roundedBits(bits, manBits)>>manBits) - 127, true
}

// roundedBits rounds the magnitude of a normal float32, given as its
// bits, to manBits mantissa bits, half to even. It returns the biased
// exponent above the low manBits mantissa bits; a mantissa that rounds
// up to 2 carries into the exponent.
func roundedBits(bits uint32, manBits int) uint32 {
	mag := bits & 0x7fffffff
	shift := 23 - manBits
	if shift > 0 {
		// Adding half an ulp less one, plus the kept lsb, carries past
		// the dropped bits exactly when round-half-even rounds up.
		mag += 1<<(shift-1) - 1 + mag>>shift&1
	}
	return mag >> shift
}

// SplitBF16 first narrows x to BF16 (the Mugi input word) and then splits,
// mirroring the on-chip datapath where the input SRAM holds BF16 words.
func SplitBF16(x float32, manBits int) Fields {
	return Split(BF16FromFloat32(x).Float32(), manBits)
}

// RoundMantissa returns x with its mantissa rounded to manBits bits; this is
// exactly the input approximation applied by Mugi before temporal coding.
func RoundMantissa(x float32, manBits int) float64 {
	return Split(x, manBits).Value()
}
