package fixed

import (
	"math"
	"testing"

	"oselmrl/internal/mat"
)

// TestAcctResultsIdentical pins the accounting layer's core contract: the
// accounted operations return bit-identical results to the plain ones —
// accounting observes the datapath, it never changes it. This is what
// keeps the fpga golden vectors valid with accounting on.
func TestAcctResultsIdentical(t *testing.T) {
	acct := &Acct{}
	cases := []struct{ x, y Fixed }{
		{FromFloat(0.5), FromFloat(-0.25)},
		{FromFloat(1.5), FromFloat(3.25)},
		{Fixed(Max), Fixed(Max)},
		{Fixed(Min), Fixed(One)},
		{FromFloat(1000), FromFloat(2000)},
		{FromFloat(-0.001), FromFloat(0.003)},
		{Fixed(1), Fixed(3)},
		{FromFloat(7), Fixed(0)},
	}
	for _, c := range cases {
		if got, want := acct.Add(c.x, c.y), plain.Add(c.x, c.y); got != want {
			t.Errorf("Acct.Add(%v,%v) = %v, plain Add = %v", c.x, c.y, got, want)
		}
		if got, want := acct.Sub(c.x, c.y), plain.Sub(c.x, c.y); got != want {
			t.Errorf("Acct.Sub(%v,%v) = %v, plain Sub = %v", c.x, c.y, got, want)
		}
		if got, want := acct.MulQ(Q20, c.x, c.y), Q20.Mul(c.x, c.y); got != want {
			t.Errorf("Acct.MulQ(%v,%v) = %v, plain Mul = %v", c.x, c.y, got, want)
		}
		if got, want := acct.DivQ(Q20, c.x, c.y), Q20.Div(c.x, c.y); got != want {
			t.Errorf("Acct.DivQ(%v,%v) = %v, plain Div = %v", c.x, c.y, got, want)
		}
	}
	for _, f := range []float64{0, 0.5, -1.25, 3000, -3000, math.NaN(), math.Inf(1), math.Inf(-1), 1e-9} {
		if got, want := acct.FromFloatQ(Q20, f), FromFloat(f); got != want {
			t.Errorf("Acct.FromFloatQ(%g) = %v, plain FromFloat = %v", f, got, want)
		}
	}
}

func TestAcctCounts(t *testing.T) {
	a := &Acct{}

	// Exact small-value arithmetic: ops counted, nothing else.
	a.Add(FromFloat(0.5), FromFloat(0.25))
	a.Sub(FromFloat(0.5), FromFloat(0.25))
	if a.Ops != 2 || a.Saturations != 0 || a.NaNs != 0 || a.QuantErrAbs != 0 {
		t.Fatalf("exact add/sub polluted the accumulator: %+v", a)
	}

	// Saturating add.
	a.Reset()
	a.Add(Fixed(Max), Fixed(One))
	if a.Saturations != 1 {
		t.Fatalf("saturating add not counted: %+v", a)
	}

	// Saturating multiply (2000 * 2000 >> Q11 range).
	a.Reset()
	big := FromFloat(2000)
	if got := a.MulQ(Q20, big, big); got != Fixed(Max) {
		t.Fatalf("Q20.Mul(2000, 2000) = %v, want rail", got)
	}
	if a.Saturations != 1 || a.QuantErrAbs != 0 {
		t.Fatalf("saturating mul must count a saturation and no quant error: %+v", a)
	}

	// Rounding multiply: eps*eps rounds; error accumulates, no saturation.
	a.Reset()
	a.MulQ(Q20, Fixed(3), Fixed(3)) // 9·2⁻⁴⁰ rounds to 0
	if a.QuantErrAbs <= 0 || a.Saturations != 0 {
		t.Fatalf("rounding mul must accumulate quant error: %+v", a)
	}

	// Division by zero saturates by convention.
	a.Reset()
	if got := a.DivQ(Q20, Fixed(One), 0); got != Fixed(Max) {
		t.Fatalf("Q20.Div(1, 0) = %v, want Max", got)
	}
	if a.Saturations != 1 {
		t.Fatalf("div-by-zero not counted as saturation: %+v", a)
	}

	// Inexact division accumulates rounding error.
	a.Reset()
	a.DivQ(Q20, Fixed(One), FromFloat(3))
	if a.QuantErrAbs <= 0 {
		t.Fatalf("1/3 must accumulate quant error: %+v", a)
	}

	// NaN coercion and Inf saturation at conversion.
	a.Reset()
	a.FromFloatQ(Q20, math.NaN())
	a.FromFloatQ(Q20, math.Inf(1))
	a.FromFloatQ(Q20, math.Inf(-1))
	if a.NaNs != 1 || a.Saturations != 2 {
		t.Fatalf("non-finite conversions miscounted: %+v", a)
	}

	// Off-grid conversion error.
	a.Reset()
	a.FromFloatQ(Q20, 1e-9) // below Q20 resolution: rounds to 0 or one LSB
	if a.QuantErrAbs <= 0 {
		t.Fatalf("off-grid conversion must accumulate quant error: %+v", a)
	}
}

func TestAcctRollup(t *testing.T) {
	a := &Acct{Ops: 3, Saturations: 1, NaNs: 2, QuantErrAbs: 0.5}
	b := &Acct{Ops: 7, Saturations: 2, NaNs: 0, QuantErrAbs: 0.25}
	a.AddTo(b)
	if b.Ops != 10 || b.Saturations != 3 || b.NaNs != 2 || b.QuantErrAbs != 0.75 {
		t.Fatalf("AddTo rollup wrong: %+v", b)
	}
	if got := b.SaturationRate(); got != 0.3 {
		t.Fatalf("SaturationRate = %g, want 0.3", got)
	}
	// Nil on either side is inert.
	var nilA *Acct
	nilA.AddTo(b)
	a.AddTo(nil)
	nilA.Reset()
	if nilA.Enabled() {
		t.Fatal("nil Acct must report disabled")
	}
	if nilA.SaturationRate() != 0 {
		t.Fatal("nil Acct rate must be 0")
	}
}

// TestDisabledAcctPathDoesNotAllocate pins the zero-cost contract of the
// nil accumulator, mirroring obs.Tracer's disabled-span test: with
// accounting off the per-op cost is one pointer comparison.
func TestDisabledAcctPathDoesNotAllocate(t *testing.T) {
	var a *Acct
	x, y := FromFloat(0.5), FromFloat(-0.25)
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = a.Add(x, y)
		_ = a.Sub(x, y)
		_ = a.MulQ(Q20, x, y)
		_ = a.DivQ(Q20, x, y)
		_ = a.FromFloatQ(Q20, 0.123)
	}); allocs != 0 {
		t.Fatalf("nil Acct op path allocates %g per run", allocs)
	}
}

// The enabled path must be allocation-free too — it only bumps fields of
// a caller-owned struct.
func TestEnabledAcctPathDoesNotAllocate(t *testing.T) {
	a := &Acct{}
	x, y := FromFloat(0.5), FromFloat(-0.25)
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = a.Add(x, y)
		_ = a.MulQ(Q20, x, y)
		_ = a.DivQ(Q20, x, y)
		_ = a.FromFloatQ(Q20, 0.123)
	}); allocs != 0 {
		t.Fatalf("enabled Acct op path allocates %g per run", allocs)
	}
}

func TestFromDenseAcct(t *testing.T) {
	m := mat.Zeros(2, 2)
	m.Set(0, 0, 0.5)
	m.Set(0, 1, math.NaN())
	m.Set(1, 0, math.Inf(1))
	m.Set(1, 1, 1e-9)
	acct := &Acct{}
	got := FromDenseQ(m, Q20, acct)
	want := FromDenseQ(m, Q20, nil)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Errorf("accounted FromDenseQ differs from plain at (%d,%d)", i, j)
			}
		}
	}
	if acct.Ops != 4 || acct.NaNs != 1 || acct.Saturations != 1 || acct.QuantErrAbs <= 0 {
		t.Fatalf("conversion accounting wrong: %+v", acct)
	}
}

// The benchmark pair quantifies disabled-vs-enabled accounting cost (the
// PR's no-overhead-when-off evidence).
func BenchmarkAcctDisabledMul(b *testing.B) {
	var a *Acct
	x, y := FromFloat(0.5), FromFloat(-0.25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.MulQ(Q20, x, y)
	}
}

func BenchmarkAcctEnabledMul(b *testing.B) {
	a := &Acct{}
	x, y := FromFloat(0.5), FromFloat(-0.25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.MulQ(Q20, x, y)
	}
}
