package fixed

// The row kernels carry the FPGA core's loops, one call per matrix row.
// Each matches its element-wise MulQ→Add/Sub sequence bit for bit,
// applied in index order: every product and every partial sum is rounded
// and saturated in turn, so a sum that touches a rail and comes back
// matches the hardware accumulator. The Acct is checked once per call: a
// nil Acct runs a tight loop with the shift and both saturations inlined,
// a non-nil one runs the scalar ops so every counter matches op for op.

// Dot returns acc + Σ x[i]·y[i]; y must be at least as long as x.
func (a *Acct) Dot(q QFormat, acc Fixed, x, y []Fixed) Fixed {
	y = y[:len(x)]
	if a != nil {
		for i, v := range x {
			acc = a.Add(acc, a.MulQ(q, v, y[i]))
		}
		return acc
	}
	f := q.frac() & 63
	half, s := int64(1)<<(f-1), int64(acc)
	for i, v := range x {
		s = clamp(s + clamp((int64(v)*int64(y[i])+half)>>f))
	}
	return Fixed(s)
}

// AddScaled sets dst[i] += s·x[i]; x must be at least as long as dst.
func (a *Acct) AddScaled(q QFormat, dst []Fixed, s Fixed, x []Fixed) { a.scaled(q, dst, s, x, 0) }

// SubScaled sets dst[i] -= s·x[i]; x must be at least as long as dst.
func (a *Acct) SubScaled(q QFormat, dst []Fixed, s Fixed, x []Fixed) { a.scaled(q, dst, s, x, -1) }

// scaled adds the products when neg is 0 and subtracts them when it is -1
// ((p^neg)-neg negates p without a branch; p is clamped, so -p fits).
func (a *Acct) scaled(q QFormat, dst []Fixed, s Fixed, x []Fixed, neg int64) {
	x = x[:len(dst)]
	if a != nil {
		for i, v := range x {
			if p := a.MulQ(q, s, v); neg == 0 {
				dst[i] = a.Add(dst[i], p)
			} else {
				dst[i] = a.Sub(dst[i], p)
			}
		}
		return
	}
	f := q.frac() & 63
	half, s64 := int64(1)<<(f-1), int64(s)
	for i, v := range x {
		p := clamp((s64*int64(v) + half) >> f)
		dst[i] = Fixed(clamp(int64(dst[i]) + (p ^ neg) - neg))
	}
}
