package fpga

import (
	"math"
	"strings"
	"testing"

	"oselmrl/internal/fixed"
	"oselmrl/internal/rng"
)

// refHidden, refPredict and refSeqTrain are the element-wise datapath:
// one MulQ and one Add/Sub per MAC, hidden unit by hidden unit and β
// column by β column — the loop order the core used before its loops
// ran through the fixed row kernels.
func refHidden(c *Core, a *fixed.Acct, x []fixed.Fixed) []fixed.Fixed {
	q := c.Format()
	h := make([]fixed.Fixed, c.HiddenSize())
	for j := range h {
		acc := c.Bias[j]
		for i := range x {
			acc = a.Add(acc, a.MulQ(q, x[i], c.Alpha.At(i, j)))
		}
		h[j] = fixed.ReLU(acc)
	}
	return h
}

func refPredict(c *Core, a *fixed.Acct, x []fixed.Fixed) []fixed.Fixed {
	q := c.Format()
	h := refHidden(c, a, x)
	out := make([]fixed.Fixed, c.OutputSize())
	for o := range out {
		for j := range h {
			out[o] = a.Add(out[o], a.MulQ(q, h[j], c.Beta.At(j, o)))
		}
	}
	return out
}

func refSeqTrain(c *Core, a *fixed.Acct, x, t []fixed.Fixed) {
	q, n := c.Format(), c.HiddenSize()
	h := refHidden(c, a, x)
	ph := make([]fixed.Fixed, n)
	for i := range ph {
		for j := range h {
			ph[i] = a.Add(ph[i], a.MulQ(q, c.P.At(i, j), h[j]))
		}
	}
	denom := q.One()
	for j := range h {
		denom = a.Add(denom, a.MulQ(q, h[j], ph[j]))
	}
	if denom < q.One()/2 {
		return
	}
	s := a.DivQ(q, q.One(), denom)
	g := make([]fixed.Fixed, n)
	for i := range g {
		g[i] = a.MulQ(q, s, ph[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.P.Set(i, j, a.Sub(c.P.At(i, j), a.MulQ(q, g[i], ph[j])))
		}
	}
	for o := range t {
		var pred fixed.Fixed
		for j := range h {
			pred = a.Add(pred, a.MulQ(q, h[j], c.Beta.At(j, o)))
		}
		e := a.Sub(t[o], pred)
		for j := range h {
			c.Beta.Set(j, o, a.Add(c.Beta.At(j, o), a.MulQ(q, g[j], e)))
		}
	}
}

// randomCore fills a core with random state. Wide parameters drive
// partial sums to the rails; the result is checked, not learned from.
func randomCore(r *rng.RNG, n, h, m int, q fixed.QFormat, scale float64) *Core {
	c := NewCoreQ(n, h, m, DefaultCycleModel(), q)
	for _, mtx := range []*fixed.Matrix{c.Alpha, c.Beta, c.P} {
		for i := 0; i < mtx.Rows(); i++ {
			for j := 0; j < mtx.Cols(); j++ {
				mtx.Set(i, j, q.FromFloat(r.Uniform(-scale, scale)))
			}
		}
	}
	for j := range c.Bias {
		c.Bias[j] = q.FromFloat(r.Uniform(-scale, scale))
	}
	for i := 0; i < h; i++ {
		c.P.Set(i, i, q.FromFloat(2))
	}
	return c
}

func randomFixed(r *rng.RNG, k int, q fixed.QFormat, scale float64) []fixed.Fixed {
	v := make([]fixed.Fixed, k)
	for i := range v {
		v[i] = q.FromFloat(r.Uniform(-scale, scale))
	}
	return v
}

// TestRowKernelDatapathMatchesElementwise drives Predict and SeqTrain on
// multi-output cores, in several formats and at parameter scales that do
// and do not saturate, against the element-wise reference: every output
// word, every P and β word, and the accounting Ops and Saturations must
// match. QuantErrAbs sums the same terms in a different order, so it
// matches to rounding.
func TestRowKernelDatapathMatchesElementwise(t *testing.T) {
	const steps = 6
	r := rng.New(7)
	for _, q := range []fixed.QFormat{fixed.Q16, fixed.Q20, fixed.Q24, {Frac: 8}} {
		for _, scale := range []float64{0.3, 40} {
			for _, acct := range []bool{false, true} {
				c := randomCore(r, 4, 12, 3, q, scale)
				ref := randomCore(r, 4, 12, 3, q, scale)
				ref.Alpha, ref.Beta, ref.P = c.Alpha.Clone(), c.Beta.Clone(), c.P.Clone()
				copy(ref.Bias, c.Bias)
				var refAcct *fixed.Acct
				if acct {
					c.EnableAccounting()
					refAcct = &fixed.Acct{}
				}
				for step := 0; step < steps; step++ {
					x := randomFixed(r, 4, q, scale)
					tgt := randomFixed(r, 3, q, scale)
					got, want := c.Predict(x), refPredict(ref, refAcct, x)
					for o := range want {
						if got[o] != want[o] {
							t.Fatalf("%s scale %g step %d: predict[%d] = %d, element-wise %d", q, scale, step, o, got[o], want[o])
						}
					}
					c.SeqTrain(x, tgt)
					refSeqTrain(ref, refAcct, x, tgt)
					for _, pair := range [][2]*fixed.Matrix{{c.P, ref.P}, {c.Beta, ref.Beta}} {
						for i := 0; i < pair[0].Rows(); i++ {
							for j := 0; j < pair[0].Cols(); j++ {
								if a, b := pair[0].At(i, j), pair[1].At(i, j); a != b {
									t.Fatalf("%s scale %g step %d: [%d][%d] = %d, element-wise %d", q, scale, step, i, j, a, b)
								}
							}
						}
					}
				}
				if c.DenomGuardTrips() == steps {
					t.Fatalf("%s scale %g: the guard rejected every update", q, scale)
				}
				if !acct {
					continue
				}
				var sum fixed.Acct
				c.PredictAcct().AddTo(&sum)
				c.SeqTrainAcct().AddTo(&sum)
				if sum.Ops != refAcct.Ops || sum.Saturations != refAcct.Saturations ||
					math.Abs(sum.QuantErrAbs-refAcct.QuantErrAbs) > 1e-9*refAcct.QuantErrAbs {
					t.Fatalf("%s scale %g: accounting %+v, element-wise %+v", q, scale, sum, *refAcct)
				}
				if scale > 1 && sum.Saturations == 0 {
					t.Fatalf("%s scale %g: no saturation exercised", q, scale)
				}
			}
		}
	}
}

// TestPredictUsingRejectsBadShape: a θ2 β that is not Ñ×m must panic with
// a message rather than be read with the wrong stride.
func TestPredictUsingRejectsBadShape(t *testing.T) {
	c := goldenCore() // Ñ = 4, m = 1
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	for _, shape := range [][2]int{{4, 2}, {3, 1}, {8, 1}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "core expects 4x1") {
					t.Errorf("β %dx%d: recovered %q, want a shape panic", shape[0], shape[1], msg)
				}
			}()
			c.PredictUsing(fixed.NewMatrixQ(shape[0], shape[1], fixed.Q20), x)
		}()
	}
}
