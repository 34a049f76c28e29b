// Package fixed implements the 32-bit Qm.f fixed-point arithmetic the
// paper's FPGA design uses for its predict and seq_train datapaths (§4.2:
// "We use 32-bit Q20 number as a fixed-point number format"). A value is a
// signed 32-bit integer with f fractional bits; the paper's — and this
// package's default — format is Q20 (Q11.20 plus sign), covering roughly
// ±2048 with a resolution of 2⁻²⁰ ≈ 9.5e-7.
//
// The fraction width is a first-class parameter: QFormat is the arithmetic
// context, and its format-carrying methods (FromFloat, Float, Mul, Div,
// Quantize, One) interpret the same 32-bit words under any Qm.f layout.
// The storage word stays 32 bits for every format — only the binary
// point moves — so memory footprints (and the FPGA BRAM model) are
// format-invariant. The zero QFormat is the Q20 default, which keeps the
// default datapath byte-compatible with the golden vectors. Acct carries
// the scalar ops (Add, Sub, MulQ, DivQ) and the row kernels the FPGA core
// runs its loops through (Dot, AddScaled, SubScaled; row.go), with
// optional numeric-health accounting.
//
// All operations saturate instead of wrapping: in the FPGA core an
// overflowing accumulator clamps at the rails, and saturation is also what
// keeps the Q-network's clipped targets well behaved.
//
// Rounding is round-to-nearest with ties toward +inf everywhere — the
// behaviour of a DSP48 multiply-shift with the half-LSB pre-add — so
// FromFloat, Mul, Div and QFormat.Quantize all land on the same grid
// point for the same real value. One convention across conversion and
// arithmetic is what makes the simulator's golden vectors meaningful.
package fixed

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// FracBits is the number of fractional bits in the default Q20 format.
const FracBits = 20

// MaxFracBits bounds the fraction width of any QFormat: at 30 fractional
// bits one sign bit and one integer bit remain in the 32-bit word.
const MaxFracBits = 30

// One is the default-format (Q20) fixed-point representation of 1.0; other
// formats get theirs from QFormat.One.
const One = int32(1) << FracBits

// Max and Min are the saturation rails.
const (
	Max = int32(math.MaxInt32)
	Min = int32(math.MinInt32)
)

// Fixed is a signed 32-bit fixed-point word. Its real value depends on the
// Qm.f format interpreting it — Q11.20 under the package default; use
// QFormat.Float for other layouts.
type Fixed int32

// FromFloat converts a float64 to Q20 fixed point with round-to-nearest
// (ties toward +inf, matching QFormat.Mul and Div) and saturation.
//
// Non-finite inputs follow the hardware AXI-boundary convention: NaN maps
// to 0 (a NaN observation must not poison the BRAM state; the conversion
// hardware has no NaN encoding to pass through), +Inf saturates to Max and
// -Inf to Min. This holds with accounting off as well — Acct.FromFloatQ
// additionally *counts* the coercion, it does not change it.
func FromFloat(f float64) Fixed {
	if math.IsNaN(f) {
		return 0
	}
	scaled := f * float64(One)
	if scaled >= float64(Max) {
		return Fixed(Max)
	}
	if scaled <= float64(Min) {
		return Fixed(Min)
	}
	return Fixed(int32(math.Floor(scaled + 0.5)))
}

// Float converts back to float64 exactly under the default Q20 format
// (every fixed-point value is float64-representable). Use QFormat.Float
// for other formats.
func (x Fixed) Float() float64 { return float64(x) / float64(One) }

// String renders the value in decimal for debugging.
func (x Fixed) String() string { return fmt.Sprintf("%.6f", x.Float()) }

// clamp saturates v to the int32 rails. It branches rather than selects,
// which keeps unsaturated sums off an accumulator's dependency chain.
func clamp(v int64) int64 {
	if int64(int32(v)) != v {
		return int64(Max) ^ v>>63 // Max above the rails, ^Max = Min below
	}
	return v
}

// ReLU is the fixed-point activation used by the FPGA core.
func ReLU(x Fixed) Fixed {
	if x > 0 {
		return x
	}
	return 0
}

// QFormat is the Qm.f arithmetic context: it fixes where the binary point
// sits inside the 32-bit word and carries every format-dependent operation
// (conversion, multiply, divide, quantization). The paper chose 20
// fractional bits; the wordlength ablation sweeps Frac and measures
// learning quality. The zero value selects the default Q20 format, so
// format-agnostic code keeps its pre-parameterized behaviour. Saturation
// rails are format-invariant: every format clamps at the int32 limits.
type QFormat struct {
	// Frac is the number of fractional bits (1..MaxFracBits). Zero selects
	// the default FracBits (Q20).
	Frac uint
}

// Predeclared formats: the paper's Q20 default plus the wordlength-sweep
// neighbours.
var (
	Q16 = QFormat{Frac: 16}
	Q20 = QFormat{Frac: 20}
	Q24 = QFormat{Frac: 24}
)

// DefaultFormat is the paper's §4.2 choice, the format the zero QFormat
// implements.
var DefaultFormat = Q20

// frac resolves the effective fraction width (the zero value means the
// Q20 default) WITHOUT validating it — the hot-path variant that must
// stay cheap enough for the arithmetic ops to inline into the
// datapath's inner loops. Widths beyond MaxFracBits are programming
// errors caught where formats enter the system (Normalized, and through
// it every constructor, plus ParseQFormat and Quantize); an unchecked
// invalid width degrades to a harmless over-wide shift, never memory
// unsafety.
func (q QFormat) frac() uint {
	f := q.Frac
	if f == 0 {
		return FracBits
	}
	return f
}

// fracValid is frac with the programming-error check, for the cold
// entry points.
func (q QFormat) fracValid() uint {
	f := q.frac()
	if f > MaxFracBits {
		badFrac(f)
	}
	return f
}

//go:noinline
func badFrac(f uint) {
	panic(fmt.Sprintf("fixed: invalid fraction width %d", f))
}

// pow2 and invPow2 tabulate 2^i and 2^-i (both exact in float64) so the
// format-generic conversion and error paths multiply by a loaded constant
// instead of dividing by a computed one — the default-format package
// functions get this for free from constant folding, and a float divide
// would otherwise dominate the per-op accounting cost. Indexed with &63
// so the compiler drops the bounds check; every validated width (≤
// MaxFracBits, and 2·f ≤ 60 for the product-grid error) is in range.
var pow2, invPow2 = func() (p, ip [64]float64) {
	for i := range p {
		p[i] = math.Ldexp(1, i)
		ip[i] = math.Ldexp(1, -i)
	}
	return
}()

// Normalized returns the format with its fraction width made explicit
// (the zero value becomes Q20), so normalized formats compare with == and
// String never prints a placeholder. Panics on an invalid width.
func (q QFormat) Normalized() QFormat { return QFormat{Frac: q.fracValid()} }

// String renders the format as "Q<frac>" ("Q20"), the spelling
// ParseQFormat accepts.
func (q QFormat) String() string { return fmt.Sprintf("Q%d", q.frac()) }

// One is the format's fixed-point representation of 1.0.
func (q QFormat) One() Fixed { return Fixed(int32(1) << q.frac()) }

// ParseQFormat parses a format name: "Q20", "q20" or a bare fraction
// width "20", bounded to 1..MaxFracBits.
func ParseQFormat(s string) (QFormat, error) {
	t := strings.TrimSpace(s)
	if len(t) > 0 && (t[0] == 'Q' || t[0] == 'q') {
		t = t[1:]
	}
	frac, err := strconv.Atoi(t)
	if err != nil {
		return QFormat{}, fmt.Errorf("fixed: invalid format %q (want e.g. Q20)", s)
	}
	if frac < 1 || frac > MaxFracBits {
		return QFormat{}, fmt.Errorf("fixed: fraction width %d out of range 1..%d", frac, MaxFracBits)
	}
	return QFormat{Frac: uint(frac)}, nil
}

// FromFloat is fixed.FromFloat under this format: round-to-nearest (ties
// toward +inf) with saturation, NaN to 0, ±Inf to the matching rail.
func (q QFormat) FromFloat(f float64) Fixed {
	if math.IsNaN(f) {
		return 0
	}
	scaled := f * pow2[q.frac()&63]
	if scaled >= float64(Max) {
		return Fixed(Max)
	}
	if scaled <= float64(Min) {
		return Fixed(Min)
	}
	return Fixed(int32(math.Floor(scaled + 0.5)))
}

// Float converts a word of this format back to float64 exactly
// (multiplying by the exact 2^-f is the exact division by 2^f).
func (q QFormat) Float(x Fixed) float64 { return float64(x) * invPow2[q.frac()&63] }

// Mul returns x·y in this format: a 64-bit product, a half-LSB pre-add
// and an arithmetic right shift by Frac (round-to-nearest, ties toward
// +inf, for either sign), then saturation — a DSP48 multiply-shift.
func (q QFormat) Mul(x, y Fixed) Fixed {
	f := q.frac()
	prod := int64(x) * int64(y)
	prod += 1 << (f - 1)
	return Fixed(clamp(prod >> f))
}

// Div returns x/y in this format, rounded to nearest (ties toward +inf)
// and saturated; division by zero saturates to the rail matching the
// sign of x (the hardware divider's convention).
func (q QFormat) Div(x, y Fixed) Fixed {
	f := q.frac()
	if y == 0 {
		if x >= 0 {
			return Fixed(Max)
		}
		return Fixed(Min)
	}
	num := int64(x) << f
	den := int64(y)
	if den < 0 {
		num, den = -num, -den
	}
	// floor(num/den + 1/2) = floor((2·num + den) / (2·den)): round to
	// nearest with ties toward +inf, the same convention as Mul.
	a, b := 2*num+den, 2*den
	r := a / b
	if a%b != 0 && a < 0 {
		r-- // Go's integer division truncates toward zero; we need floor.
	}
	return Fixed(clamp(r))
}

// Quantize rounds f to the format's grid with saturation at the 32-bit
// rails, staying in float64 — the float-side twin of FromFloat: both land
// on the same grid point for the same real value (asserted by the
// format-agreement tests). Non-finite inputs follow FromFloat's boundary
// convention: NaN quantizes to 0, ±Inf to the matching rail.
func (q QFormat) Quantize(f float64) float64 {
	if math.IsNaN(f) {
		return 0
	}
	w := q.frac()
	if w > MaxFracBits {
		badFrac(w)
	}
	one := pow2[w]
	scaled := math.Floor(f*one + 0.5)
	maxV := float64(math.MaxInt32)
	if scaled > maxV {
		scaled = maxV
	}
	if scaled < -maxV-1 {
		scaled = -maxV - 1
	}
	return scaled * invPow2[w]
}

// Resolution returns the grid spacing 2^-Frac.
func (q QFormat) Resolution() float64 { return 1 / float64(int64(1)<<q.frac()) }

// MaxValue returns the largest representable magnitude.
func (q QFormat) MaxValue() float64 { return float64(math.MaxInt32) / float64(int64(1)<<q.frac()) }
