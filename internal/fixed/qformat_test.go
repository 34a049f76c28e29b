package fixed

import (
	"math"
	"testing"
)

// sweepFormats are the wordlength-ablation formats every format-generic
// test exercises.
var sweepFormats = []QFormat{Q16, Q20, Q24}

// sweepValues covers the shared dynamic range of Q16..Q24 (|v| < 127)
// plus grid points, ties and near-tie offsets.
func sweepValues() []float64 {
	vals := []float64{0, 1, -1, 0.5, -0.5, 0.25, 1.0 / 3, -2.0 / 3, math.Pi,
		-math.E, 100.125, -126.99, 1e-7, -1e-7, 42.000001}
	for i := 1; i <= 24; i++ {
		step := 1 / float64(int64(1)<<i)
		vals = append(vals, step, -step, step/2, -step/2, 1+step, -1-step)
	}
	return vals
}

// TestFormatAgreementQuantizeVsFromFloat is the float-side/fixed-side
// differential test: for every format and value, QFormat.Quantize (pure
// float64) and QFormat.FromFloat→Float (through the 32-bit word) must land
// on the same grid point — one rounding convention across conversion and
// arithmetic.
func TestFormatAgreementQuantizeVsFromFloat(t *testing.T) {
	for _, q := range sweepFormats {
		for _, v := range sweepValues() {
			got := q.Float(q.FromFloat(v))
			want := q.Quantize(v)
			if got != want {
				t.Errorf("%s: FromFloat/Float(%g) = %g, Quantize = %g", q, v, got, want)
			}
		}
	}
}

// TestFormatAgreementMul asserts the multiply lands on the same grid point
// as quantizing the exact product of the quantized operands — the DSP48
// half-LSB convention applied consistently.
func TestFormatAgreementMul(t *testing.T) {
	for _, q := range sweepFormats {
		vals := []float64{0, 1, -1, 0.5, 1.0 / 3, -0.75, 2.5, -1.25}
		for _, a := range vals {
			for _, b := range vals {
				fa, fb := q.FromFloat(a), q.FromFloat(b)
				got := q.Mul(fa, fb)
				// The exact product of the two grid values lives on the
				// 2^-2f grid; the rounded result must be within half an LSB.
				exact := q.Float(fa) * q.Float(fb)
				if math.Abs(q.Float(got)-exact) > q.Resolution()/2 {
					t.Errorf("%s: Mul(%g, %g) = %g, exact %g (off by > LSB/2)",
						q, a, b, q.Float(got), exact)
				}
			}
		}
	}
}

// TestQ20MethodsMatchPackageFunctions pins the zero/default format
// bit-for-bit to Q20 and to the package-level Q20 conversions (FromFloat,
// Fixed.Float) — the property that keeps the default datapath
// byte-identical to the golden vectors.
func TestQ20MethodsMatchPackageFunctions(t *testing.T) {
	words := []Fixed{0, 1, -1, Fixed(One), -Fixed(One), 12345, -98765,
		Fixed(One) / 3, Fixed(Max) / 2, Fixed(Min) / 2, Fixed(Max), Fixed(Min)}
	floats := []float64{0, 1, -1, 0.5, 1.0 / 3, math.Pi, -1e6, 1e9, -1e9,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, q := range []QFormat{{}, Q20, DefaultFormat} {
		for _, x := range words {
			for _, y := range words {
				if got, want := q.Mul(x, y), Q20.Mul(x, y); got != want {
					t.Fatalf("%s.Mul(%d, %d) = %d, package Mul = %d", q, x, y, got, want)
				}
				if got, want := q.Div(x, y), Q20.Div(x, y); got != want {
					t.Fatalf("%s.Div(%d, %d) = %d, package Div = %d", q, x, y, got, want)
				}
			}
			if got, want := q.Float(x), x.Float(); got != want {
				t.Fatalf("%s.Float(%d) = %g, Fixed.Float = %g", q, x, got, want)
			}
		}
		for _, f := range floats {
			if got, want := q.FromFloat(f), FromFloat(f); got != want {
				t.Fatalf("%s.FromFloat(%g) = %d, package FromFloat = %d", q, f, got, want)
			}
		}
		if q.One() != Fixed(One) {
			t.Fatalf("%s.One() = %d, want %d", q, q.One(), One)
		}
	}
}

func TestQFormatAccessors(t *testing.T) {
	if (QFormat{}).Normalized() != Q20 {
		t.Errorf("zero format normalizes to %v, want Q20", (QFormat{}).Normalized())
	}
	if got := (QFormat{}).String(); got != "Q20" {
		t.Errorf("zero format String() = %q, want Q20", got)
	}
	if got := Q24.One(); got != Fixed(1<<24) {
		t.Errorf("Q24.One() = %d, want %d", got, 1<<24)
	}
	if got := Q16.Resolution(); got != 1.0/65536 {
		t.Errorf("Q16.Resolution() = %g", got)
	}
	if got := Q16.MaxValue(); got != float64(math.MaxInt32)/65536 {
		t.Errorf("Q16.MaxValue() = %g", got)
	}
}

func TestParseQFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want QFormat
	}{
		{"Q20", Q20}, {"q16", Q16}, {"24", Q24}, {" Q20 ", Q20},
		{"1", QFormat{Frac: 1}}, {"30", QFormat{Frac: 30}},
	} {
		got, err := ParseQFormat(tc.in)
		if err != nil {
			t.Errorf("ParseQFormat(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseQFormat(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "Q", "Q0", "0", "31", "Q31", "float", "Q20.5", "-3"} {
		if _, err := ParseQFormat(bad); err == nil {
			t.Errorf("ParseQFormat(%q) accepted", bad)
		}
	}
}

func TestParseQFormatRoundTripsString(t *testing.T) {
	for _, q := range sweepFormats {
		got, err := ParseQFormat(q.String())
		if err != nil || got != q {
			t.Errorf("ParseQFormat(%s) = %v, %v", q, got, err)
		}
	}
}

// TestAcctQVariantsMatchArithmetic asserts the format-explicit accounting
// ops return exactly what the un-accounted arithmetic returns, at every
// sweep format, enabled and disabled.
func TestAcctQVariantsMatchArithmetic(t *testing.T) {
	words := []Fixed{0, 1, -1, 54321, -9999, Fixed(Max) / 3, Fixed(Min) / 3, Fixed(Max), Fixed(Min)}
	floats := []float64{0, 1.5, -2.25, 1e8, -1e8, math.NaN(), math.Inf(1)}
	for _, q := range sweepFormats {
		for _, a := range []*Acct{nil, {}} {
			for _, x := range words {
				for _, y := range words {
					if got, want := a.MulQ(q, x, y), q.Mul(x, y); got != want {
						t.Fatalf("%s Acct(%v).MulQ(%d, %d) = %d, want %d", q, a != nil, x, y, got, want)
					}
					if got, want := a.DivQ(q, x, y), q.Div(x, y); got != want {
						t.Fatalf("%s Acct(%v).DivQ(%d, %d) = %d, want %d", q, a != nil, x, y, got, want)
					}
				}
			}
			for _, f := range floats {
				if got, want := a.FromFloatQ(q, f), q.FromFloat(f); got != want {
					t.Fatalf("%s Acct(%v).FromFloatQ(%g) = %d, want %d", q, a != nil, f, got, want)
				}
			}
		}
	}
}

// TestAcctQVariantCounts spot-checks the accounting semantics under a
// non-default format: saturation at the rails, NaN coercion and a nonzero
// rounding-error accumulation.
func TestAcctQVariantCounts(t *testing.T) {
	var a Acct
	q := Q24
	// 200 * 200 = 40000 > Q24's max (~127.9): saturates.
	big := q.FromFloat(120)
	if a.MulQ(q, big, big) != Fixed(Max) {
		t.Fatal("expected rail")
	}
	if a.Saturations != 1 {
		t.Fatalf("Saturations = %d, want 1", a.Saturations)
	}
	a.DivQ(q, q.One(), 0)
	if a.Saturations != 2 {
		t.Fatalf("Saturations = %d, want 2 after div-by-zero", a.Saturations)
	}
	a.FromFloatQ(q, math.NaN())
	if a.NaNs != 1 {
		t.Fatalf("NaNs = %d, want 1", a.NaNs)
	}
	before := a.QuantErrAbs
	a.FromFloatQ(q, 1.0/3) // not on any binary grid: must accumulate error
	if a.QuantErrAbs <= before {
		t.Fatal("expected quantization error to accumulate")
	}
	if a.Ops != 4 {
		t.Fatalf("Ops = %d, want 4", a.Ops)
	}
}

// TestMatrixFormat covers the format-carrying matrix paths: construction,
// conversion round-trip within the format's resolution, format-preserving
// Clone, and storage invariance.
func TestMatrixFormat(t *testing.T) {
	for _, q := range sweepFormats {
		m := NewMatrixQ(2, 3, q)
		if m.Format() != q {
			t.Fatalf("Format() = %v, want %v", m.Format(), q)
		}
		if m.Words() != 6 {
			t.Fatalf("Words() = %d, want 6 (storage is format-invariant)", m.Words())
		}
		c := m.Clone()
		if c.Format() != q {
			t.Fatalf("Clone dropped format: %v", c.Format())
		}
	}
	if NewMatrixQ(1, 1, QFormat{}).Format() != Q20 {
		t.Error("the zero format should default to Q20")
	}
}
