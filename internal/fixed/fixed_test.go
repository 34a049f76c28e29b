package fixed

import (
	"math"
	"testing"
	"testing/quick"

	"oselmrl/internal/rng"
)

// plain is the disabled accumulator: its Add and Sub are the plain
// saturating ops.
var plain *Acct

func TestFromFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, 1.25, 100.125, -2047, 2047} {
		f := FromFloat(v)
		if got := f.Float(); got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestFromFloatRounding(t *testing.T) {
	// Values off the Q20 grid round to nearest.
	res := 1.0 / float64(One)
	v := 3.3
	f := FromFloat(v)
	if d := math.Abs(f.Float() - v); d > res/2+1e-15 {
		t.Errorf("rounding error %v exceeds half-resolution", d)
	}
}

// All rounding sites share one convention: nearest, ties toward +inf.
// FromFloat previously used round-half-to-even while Mul/Div rounded
// half-up, so conversion and arithmetic could disagree by one LSB on the
// same real value.
func TestRoundingConventionUnified(t *testing.T) {
	res := 1.0 / float64(One)
	// +2.5 LSB: half-up gives 3, half-to-even gave 2.
	if got := FromFloat(2.5 * res); got != Fixed(3) {
		t.Errorf("FromFloat(+2.5 LSB) = %d, want 3 (ties toward +inf)", got)
	}
	// -1.5 LSB: toward +inf gives -1, half-to-even gave -2.
	if got := FromFloat(-1.5 * res); got != Fixed(-1) {
		t.Errorf("FromFloat(-1.5 LSB) = %d, want -1 (ties toward +inf)", got)
	}
	// Mul ties: ±0.5 LSB products round toward +inf.
	if got := Q20.Mul(Fixed(1), Fixed(1<<(FracBits-1))); got != Fixed(1) {
		t.Errorf("Q20.Mul(+0.5 LSB tie) = %d, want 1", got)
	}
	if got := Q20.Mul(Fixed(-1), Fixed(1<<(FracBits-1))); got != Fixed(0) {
		t.Errorf("Q20.Mul(-0.5 LSB tie) = %d, want 0", got)
	}
	// Div ties: ±1.5 LSB quotients round toward +inf (the old code
	// rounded half away from zero, giving -2 for the negative case).
	two := FromFloat(2)
	if got := Q20.Div(Fixed(3), two); got != Fixed(2) {
		t.Errorf("Q20.Div(+1.5 LSB tie) = %d, want 2", got)
	}
	if got := Q20.Div(Fixed(-3), two); got != Fixed(-1) {
		t.Errorf("Q20.Div(-1.5 LSB tie) = %d, want -1", got)
	}
	// Negative divisor: (-3)/(-2) = +1.5 LSB, still toward +inf.
	if got := Q20.Div(Fixed(-3), -two); got != Fixed(2) {
		t.Errorf("Q20.Div(-3, -2) = %d, want 2", got)
	}
	// QFormat follows the same convention.
	q := QFormat{Frac: FracBits}
	if got := q.Quantize(2.5 * res); got != 3*res {
		t.Errorf("Quantize(+2.5 LSB) = %v, want %v", got, 3*res)
	}
	if got := q.Quantize(-1.5 * res); got != -res {
		t.Errorf("Quantize(-1.5 LSB) = %v, want %v", got, -res)
	}
}

// Property: Mul agrees bit-for-bit with converting the exact float
// product, for operands small enough that the product is exact in a
// float64 (|raw| < 2^25 keeps the integer product under 2^50).
func TestPropertyMulMatchesFromFloat(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := Fixed(r.Intn(1<<26) - 1<<25)
		y := Fixed(r.Intn(1<<26) - 1<<25)
		return Q20.Mul(x, y) == FromFloat(x.Float()*y.Float())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(1e9) != Fixed(Max) {
		t.Error("large positive must saturate to Max")
	}
	if FromFloat(-1e9) != Fixed(Min) {
		t.Error("large negative must saturate to Min")
	}
	if FromFloat(math.NaN()) != 0 {
		t.Error("NaN must map to 0")
	}
	if FromFloat(math.Inf(1)) != Fixed(Max) {
		t.Error("+Inf must saturate to Max")
	}
}

func TestAddSub(t *testing.T) {
	a, b := FromFloat(1.5), FromFloat(2.25)
	if got := plain.Add(a, b).Float(); got != 3.75 {
		t.Errorf("Add = %v", got)
	}
	if got := plain.Sub(a, b).Float(); got != -0.75 {
		t.Errorf("Sub = %v", got)
	}
}

func TestAddSaturates(t *testing.T) {
	if plain.Add(Fixed(Max), Fixed(One)) != Fixed(Max) {
		t.Error("Add overflow must saturate")
	}
	if plain.Sub(Fixed(Min), Fixed(One)) != Fixed(Min) {
		t.Error("Sub underflow must saturate")
	}
}

func TestNeg(t *testing.T) {
	if plain.Sub(0, FromFloat(1.5)).Float() != -1.5 {
		t.Error("0 - 1.5")
	}
	if plain.Sub(0, Fixed(Min)) != Fixed(Max) {
		t.Error("0 - Min must saturate to Max")
	}
}

func TestMulKnown(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{1.5, -2, -3},
		{0, 100, 0},
	}
	for _, c := range cases {
		if got := Q20.Mul(FromFloat(c.a), FromFloat(c.b)).Float(); got != c.want {
			t.Errorf("Q20.Mul(%v, %v) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMulSaturates(t *testing.T) {
	big := FromFloat(2000)
	if Q20.Mul(big, big) != Fixed(Max) {
		t.Error("Mul overflow must saturate")
	}
	if Q20.Mul(big, -big) != Fixed(Min) {
		t.Error("Mul negative overflow must saturate")
	}
}

func TestDivKnown(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{6, 3, 2},
		{-6, 3, -2},
		{1, 4, 0.25},
		{0, 5, 0},
	}
	for _, c := range cases {
		if got := Q20.Div(FromFloat(c.a), FromFloat(c.b)).Float(); got != c.want {
			t.Errorf("Q20.Div(%v, %v) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDivByZero(t *testing.T) {
	if Q20.Div(FromFloat(1), 0) != Fixed(Max) {
		t.Error("positive/0 must saturate to Max")
	}
	if Q20.Div(FromFloat(-1), 0) != Fixed(Min) {
		t.Error("negative/0 must saturate to Min")
	}
}

func TestRecip(t *testing.T) {
	if got := Q20.Div(Fixed(One), FromFloat(4)).Float(); got != 0.25 {
		t.Errorf("1/4 = %v", got)
	}
	// Reciprocal of a denominator >= 1, the OS-ELM case: 1/(1+hPh) <= 1.
	d := FromFloat(1.7)
	got := Q20.Div(Fixed(One), d).Float()
	if math.Abs(got-1/1.7) > 2e-6 {
		t.Errorf("1/1.7 = %v want %v", got, 1/1.7)
	}
}

func TestMulAcc(t *testing.T) {
	acc := FromFloat(1)
	acc = plain.Add(acc, Q20.Mul(FromFloat(2), FromFloat(3)))
	if acc.Float() != 7 {
		t.Errorf("1 + 2·3 = %v", acc.Float())
	}
}

func TestClampReLUAbs(t *testing.T) {
	if ReLU(FromFloat(-3)) != 0 {
		t.Error("ReLU negative")
	}
	if ReLU(FromFloat(3)) != FromFloat(3) {
		t.Error("ReLU positive")
	}
}

// Property: fixed-point multiply matches float multiply within quantization
// error for in-range operands.
func TestPropertyMulAccuracy(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := r.Uniform(-30, 30)
		b := r.Uniform(-30, 30)
		got := Q20.Mul(FromFloat(a), FromFloat(b)).Float()
		// Error sources: two input quantizations (each <= 2^-21 relative to
		// the other operand) plus the product rounding.
		tol := (math.Abs(a)+math.Abs(b))/float64(One)*2 + 2.0/float64(One)
		return math.Abs(got-a*b) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative and Sub antisymmetric under saturation-free
// operands.
func TestPropertyAddCommutative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := FromFloat(r.Uniform(-500, 500))
		b := FromFloat(r.Uniform(-500, 500))
		return plain.Add(a, b) == plain.Add(b, a) && plain.Sub(a, b) == plain.Sub(0, plain.Sub(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQFormatQuantize(t *testing.T) {
	q := QFormat{Frac: 20}
	if got := q.Quantize(0.5); got != 0.5 {
		t.Errorf("Quantize(0.5) = %v", got)
	}
	if got := q.Resolution(); got != 1.0/(1<<20) {
		t.Errorf("Resolution = %v", got)
	}
	// Coarser format quantizes harder.
	q8 := QFormat{Frac: 8}
	v := 0.123456789
	d20 := math.Abs(q.Quantize(v) - v)
	d8 := math.Abs(q8.Quantize(v) - v)
	if d8 < d20 {
		t.Error("coarser format should not be more accurate")
	}
	if d8 > q8.Resolution() {
		t.Errorf("Q8 error %v exceeds resolution %v", d8, q8.Resolution())
	}
}

func TestQFormatSaturates(t *testing.T) {
	q := QFormat{Frac: 20}
	if got := q.Quantize(1e9); got > q.MaxValue() {
		t.Errorf("Quantize must saturate: %v > %v", got, q.MaxValue())
	}
}

func TestQFormatInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid fraction width")
		}
	}()
	QFormat{Frac: 31}.Quantize(1)
}

func TestStringer(t *testing.T) {
	if s := FromFloat(1.5).String(); s != "1.500000" {
		t.Errorf("String = %q", s)
	}
}
