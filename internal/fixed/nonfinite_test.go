package fixed

import (
	"math"
	"testing"
)

// TestNonFiniteConversionTable pins the documented boundary convention for
// non-finite floats end to end: FromFloat's NaN→0 / ±Inf→rail mapping, the
// behaviour of those coerced values through Div, and QFormat.Quantize's
// matching treatment. The convention is silent by design (the AXI
// conversion hardware has no NaN encoding); the table makes it tested,
// documented behaviour instead of an accident.
func TestNonFiniteConversionTable(t *testing.T) {
	cases := []struct {
		name string
		got  Fixed
		want Fixed
	}{
		{"FromFloat(NaN)", FromFloat(math.NaN()), 0},
		{"FromFloat(+Inf)", FromFloat(math.Inf(1)), Fixed(Max)},
		{"FromFloat(-Inf)", FromFloat(math.Inf(-1)), Fixed(Min)},
		{"FromFloat(huge)", FromFloat(1e300), Fixed(Max)},
		{"FromFloat(-huge)", FromFloat(-1e300), Fixed(Min)},
		// NaN coerced to 0 then divided: 0/x = 0.
		{"Q20.Div(FromFloat(NaN), 2)", Q20.Div(FromFloat(math.NaN()), FromFloat(2)), 0},
		// Dividing by a coerced NaN (0) pins the rail matching the sign.
		{"Q20.Div(1, FromFloat(NaN))", Q20.Div(Fixed(One), FromFloat(math.NaN())), Fixed(Max)},
		{"Q20.Div(-1, FromFloat(NaN))", Q20.Div(-Fixed(One), FromFloat(math.NaN())), Fixed(Min)},
		// Inf saturates at conversion, then divides like the rail value:
		// Max/2 rounds half-up to 2³⁰, and 1/Max ≈ 2⁻¹¹ (512 LSBs).
		{"Q20.Div(FromFloat(+Inf), 2)", Q20.Div(FromFloat(math.Inf(1)), FromFloat(2)), Fixed(1 << 30)},
		{"Q20.Div(1, FromFloat(+Inf))", Q20.Div(Fixed(One), FromFloat(math.Inf(1))), Fixed(512)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d (%v), want %d (%v)", c.name, int32(c.got), c.got, int32(c.want), c.want)
		}
	}

	q := QFormat{Frac: 20}
	qcases := []struct {
		name string
		in   float64
		want float64
	}{
		{"Quantize(NaN)", math.NaN(), 0},
		{"Quantize(+Inf)", math.Inf(1), q.MaxValue()},
		{"Quantize(-Inf)", math.Inf(-1), -float64(math.MaxInt32+1) / float64(int64(1)<<20)},
		{"Quantize(huge)", 1e300, q.MaxValue()},
	}
	for _, c := range qcases {
		got := q.Quantize(c.in)
		if math.IsNaN(got) || got != c.want {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}

	// Quantize must agree with FromFloat on the Q20 grid for finite values
	// near the rails, keeping the two conversion paths one convention.
	for _, f := range []float64{2047.5, -2047.5, 0.3, -0.3} {
		if got, want := q.Quantize(f), FromFloat(f).Float(); got != want {
			t.Errorf("Quantize(%g) = %g, FromFloat = %g", f, got, want)
		}
	}
}
