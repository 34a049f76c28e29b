package fixed

import "math"

// Acct accumulates numeric-health counters for the fixed-point datapath
// (any Qm.f format — Add and Sub are format-free, MulQ, DivQ and
// FromFloatQ take the format): how often an operation hit the saturation
// rails, how many NaN inputs were coerced to zero at conversion, and how
// much value was lost to rounding. A nil *Acct is the fully disabled
// state — every method returns the plain result at the cost of one
// pointer comparison (per op, or per row for the row kernels), no
// allocation and no atomics — the same contract as obs.Tracer, pinned by
// an AllocsPerRun test.
//
// An Acct is NOT synchronized: each consumer (one fpga.Core phase, one
// conversion site) owns its own accumulator, and aggregation happens at
// snapshot time. That keeps the per-op cost to a handful of integer adds.
type Acct struct {
	// Ops counts accounted operations (Add/Sub/MulQ/DivQ/FromFloatQ calls).
	Ops int64
	// Saturations counts results clamped at the int32 rails, including
	// division by zero (which saturates by convention).
	Saturations int64
	// NaNs counts NaN inputs coerced to zero by FromFloatQ.
	NaNs int64
	// QuantErrAbs accumulates the absolute rounding error, in real value
	// units, of every non-saturating MulQ, DivQ and FromFloatQ. Saturating
	// results are excluded — their (unbounded) clamping loss is tracked by
	// Saturations instead, keeping this series a pure quantization signal.
	QuantErrAbs float64
}

// Enabled reports whether the accumulator records anything.
func (a *Acct) Enabled() bool { return a != nil }

// Reset zeroes the accumulator. Nil-safe.
func (a *Acct) Reset() {
	if a == nil {
		return
	}
	*a = Acct{}
}

// AddTo merges this accumulator into dst (nil-safe on both sides) — how
// per-phase accumulators roll up into run totals.
func (a *Acct) AddTo(dst *Acct) {
	if a == nil || dst == nil {
		return
	}
	dst.Ops += a.Ops
	dst.Saturations += a.Saturations
	dst.NaNs += a.NaNs
	dst.QuantErrAbs += a.QuantErrAbs
}

// SaturationRate returns Saturations/Ops (0 for an empty or nil Acct).
func (a *Acct) SaturationRate() float64 {
	if a == nil || a.Ops == 0 {
		return 0
	}
	return float64(a.Saturations) / float64(a.Ops)
}

// saturated reports whether v clamps at the rails.
func saturated(v int64) bool { return v > int64(Max) || v < int64(Min) }

// Add returns x + y with saturation, counting the op when a is non-nil.
func (a *Acct) Add(x, y Fixed) Fixed {
	v := int64(x) + int64(y)
	if a != nil {
		a.Ops++
		if saturated(v) {
			a.Saturations++
		}
	}
	return Fixed(clamp(v))
}

// Sub returns x − y with saturation, counting the op when a is non-nil.
func (a *Acct) Sub(x, y Fixed) Fixed {
	v := int64(x) - int64(y)
	if a != nil {
		a.Ops++
		if saturated(v) {
			a.Saturations++
		}
	}
	return Fixed(clamp(v))
}

// MulQ is QFormat.Mul with accounting: saturation at the rails plus the
// rounding error of the 2⁻²ᶠ → 2⁻ᶠ shift. Nil-safe. The datapath's loops
// run through the row kernels (row.go), not through per-element calls.
func (a *Acct) MulQ(q QFormat, x, y Fixed) Fixed {
	if a == nil {
		return q.Mul(x, y)
	}
	f := q.frac()
	a.Ops++
	prod := int64(x) * int64(y)
	rounded := (prod + 1<<(f-1)) >> f
	if saturated(rounded) {
		a.Saturations++
		return Fixed(clamp(rounded))
	}
	// Rounding error in real units: the exact product lives on the 2⁻²ᶠ
	// grid, the result on the 2⁻ᶠ grid.
	a.QuantErrAbs += math.Abs(float64(prod-(rounded<<f))) * invPow2[(2*f)&63]
	return Fixed(rounded)
}

// DivQ is QFormat.Div with accounting: division by zero counts as a
// saturation (it pins the matching rail), and the rounding error of the
// quotient is accumulated otherwise. Nil-safe.
func (a *Acct) DivQ(q QFormat, x, y Fixed) Fixed {
	if a == nil {
		return q.Div(x, y)
	}
	a.Ops++
	if y == 0 {
		a.Saturations++
		return q.Div(x, y)
	}
	res := q.Div(x, y)
	if res == Fixed(Max) || res == Fixed(Min) {
		// Distinguishing an exact rail hit from a clamped quotient is not
		// worth a second wide division; rail results are rare and counting
		// them as saturations is the conservative reading.
		a.Saturations++
		return res
	}
	// Exact quotient x/y in real units vs the rounded fixed-point result.
	exact := float64(x) / float64(y)
	a.QuantErrAbs += math.Abs(exact - float64(res)*invPow2[q.frac()&63])
	return res
}

// FromFloatQ is QFormat.FromFloat with accounting: NaN coercion,
// saturation at the rails (±Inf always saturates) and conversion rounding
// error. Nil-safe.
func (a *Acct) FromFloatQ(q QFormat, f float64) Fixed {
	if a == nil {
		return q.FromFloat(f)
	}
	a.Ops++
	if math.IsNaN(f) {
		a.NaNs++
		return 0
	}
	w := q.frac() & 63
	scaled := f * pow2[w]
	if scaled >= float64(Max) || scaled <= float64(Min) {
		a.Saturations++
		return q.FromFloat(f)
	}
	res := q.FromFloat(f)
	a.QuantErrAbs += math.Abs(f - float64(res)*invPow2[w])
	return res
}
