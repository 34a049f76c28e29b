// Package fpga simulates the paper's PYNQ-Z1 implementation (§4.2): the
// OS-ELM Q-Network's predict and seq_train modules realized in 32-bit
// fixed point on the programmable logic at 125 MHz, with initial training
// on the Cortex-A9 CPU. The paper fixes the format to Q20; the simulator
// parameterizes it (NewCoreQ/NewAgentQ take any Qm.f format) with Q20 as
// the default. The simulator is bit-accurate — every add, mul and div
// goes through internal/fixed's saturating Qm.f arithmetic — and
// cycle-counted: the paper's core has "only a single add, mult, and div
// unit", so datapath cycles are the sequential operation count (divides
// take an iterative divider's latency), tabulated once per core in its
// schedule (kernel.go). Cycle counts and BRAM/DSP/FF/LUT
// resources are format-invariant: only the binary point moves, the 32-bit
// word and the operation schedule do not.
//
// The package also models the core's FPGA resource utilization
// (BRAM/DSP/FF/LUT of an xc7z020, paper Table 3), including the result
// that a 256-unit design does not fit the device.
package fpga

import (
	"fmt"

	"oselmrl/internal/fixed"
	"oselmrl/internal/mat"
)

// CycleModel holds per-operation latencies of the single-unit datapath.
type CycleModel struct {
	// Add, Mul are 1-cycle pipelined units; Div is an iterative divider.
	Add, Mul, Div int64
	// InvokeOverhead is the control/handshake cost per module invocation.
	InvokeOverhead int64
}

// DefaultCycleModel matches a simple non-pipelined datapath: each add and
// multiply issues on its own cycle through the single shared units, a
// 32-cycle radix-2 divider, and a small FSM overhead per invocation.
func DefaultCycleModel() CycleModel {
	return CycleModel{Add: 1, Mul: 1, Div: 32, InvokeOverhead: 16}
}

// PipelinedCycleModel models a fused multiply-accumulate pipeline at
// initiation interval 1: one MAC issues per cycle, so the multiply's
// cycle is absorbed into the accumulating add (Mul = 0, Add = 1). The
// divider and FSM costs are unchanged. This is the II=1 design a Vivado
// HLS `pipeline` pragma produces and roughly halves seq_train cycles
// relative to DefaultCycleModel — an ablation on the paper's "single add,
// mult, and div unit" statement.
func PipelinedCycleModel() CycleModel {
	return CycleModel{Add: 1, Mul: 0, Div: 32, InvokeOverhead: 16}
}

// Core is the fixed-point OS-ELM datapath: the on-chip state (α, b, β, P
// in BRAM) plus cycle accounting.
type Core struct {
	// Alpha is the n×Ñ input weight BRAM.
	Alpha *fixed.Matrix
	// Bias is the Ñ-entry bias BRAM.
	Bias []fixed.Fixed
	// Beta is the Ñ×m output weight BRAM.
	Beta *fixed.Matrix
	// P is the Ñ×Ñ inverse-covariance BRAM.
	P *fixed.Matrix

	inputSize, hiddenSize, outputSize int

	// sched is the cycle-cost table Predict and SeqTrain charge from;
	// cycles is the running total of the charged steps.
	sched  schedule
	cycles int64

	// q is the Qm.f arithmetic context (normalized; Q20 by default); one
	// is 1.0 in that format, cached because the seq_train inner loop and
	// the denominator guard compare against it every update.
	q   fixed.QFormat
	one fixed.Fixed

	// denomFloor is the seq_train denominator guard threshold (one half,
	// i.e. 0.5 in the core's format). The Eq. 5 scalar 1 + h·P·hᵀ stays
	// ≥ 1 while P is positive semi-definite; quantization jitter can
	// nibble a few LSBs below 1, but a drop past 0.5 means P has been
	// saturated or poisoned and the reciprocal would amplify garbage.
	denomFloor fixed.Fixed
	// denomGuardTrips counts seq_train updates rejected by the guard.
	denomGuardTrips int64

	// scratch vectors model the working BRAMs (h and P·h); g is the
	// seq_train gain s·ph, y the m-entry predict output and e the
	// seq_train residual, which live in register/LUTRAM scratch rather
	// than a modelled BRAM bank (so BRAMWords leaves them out).
	h  []fixed.Fixed
	ph []fixed.Fixed
	g  []fixed.Fixed
	y  []fixed.Fixed
	e  []fixed.Fixed

	// Numeric-health accounting. acct is the active accumulator during a
	// module invocation (acctPredict inside Predict, acctSeq inside
	// SeqTrain); acctConv accounts the LoadFloat quantization boundary.
	// All nil when accounting is off — the datapath then pays one nil
	// check per row kernel call and nothing else (pinned by the
	// disabled-path tests).
	acct        *fixed.Acct
	acctPredict *fixed.Acct
	acctSeq     *fixed.Acct
	acctConv    *fixed.Acct

	// Device-level cycle profiler (prof.go); nil when profiling is off.
	// It is charged from the schedule alongside the cycle counter, so
	// the arithmetic (fixed's row kernels) carries neither cycle nor
	// profiler code.
	prof *Prof
}

// NewCore allocates a core for the given dimensions in the default Q20
// format.
func NewCore(inputSize, hiddenSize, outputSize int, model CycleModel) *Core {
	return NewCoreQ(inputSize, hiddenSize, outputSize, model, fixed.QFormat{})
}

// NewCoreQ allocates a core whose datapath runs in the given Qm.f format.
// The zero format is the Q20 default, bit-identical to NewCore.
func NewCoreQ(inputSize, hiddenSize, outputSize int, model CycleModel, q fixed.QFormat) *Core {
	if inputSize <= 0 || hiddenSize <= 0 || outputSize <= 0 {
		panic(fmt.Sprintf("fpga: invalid core dimensions %d/%d/%d", inputSize, hiddenSize, outputSize))
	}
	q = q.Normalized()
	one := q.One()
	return &Core{
		Alpha:      fixed.NewMatrixQ(inputSize, hiddenSize, q),
		Bias:       make([]fixed.Fixed, hiddenSize),
		Beta:       fixed.NewMatrixQ(hiddenSize, outputSize, q),
		P:          fixed.NewMatrixQ(hiddenSize, hiddenSize, q),
		inputSize:  inputSize,
		hiddenSize: hiddenSize,
		outputSize: outputSize,
		q:          q,
		one:        one,
		denomFloor: one / 2,
		sched:      newSchedule(inputSize, hiddenSize, outputSize, model),
		h:          make([]fixed.Fixed, hiddenSize),
		ph:         make([]fixed.Fixed, hiddenSize),
		g:          make([]fixed.Fixed, hiddenSize),
		y:          make([]fixed.Fixed, outputSize),
		e:          make([]fixed.Fixed, outputSize),
	}
}

// Format returns the core's Qm.f arithmetic format.
func (c *Core) Format() fixed.QFormat { return c.q }

// DenomGuardTrips returns how many seq_train updates the denominator
// guard rejected (see SeqTrain).
func (c *Core) DenomGuardTrips() int64 { return c.denomGuardTrips }

// LoadFloat quantizes float64 parameters into the core's BRAMs — the DMA
// transfer after the CPU-side initial training. With accounting enabled
// the conversion accumulator records NaN coercions, rail saturations and
// quantization error of every loaded parameter. The load charges no
// datapath cycles (the bulk transfer rides the CPU-side timing profile),
// but with profiling enabled its BRAM writes are recorded under the load
// phase — including the transposed P copy (the Pt bank) the real design
// fills alongside P.
func (c *Core) LoadFloat(alpha *mat.Dense, bias []float64, beta, p *mat.Dense) {
	c.Alpha = fixed.FromDenseQ(alpha, c.q, c.acctConv)
	for i, b := range bias {
		c.Bias[i] = c.acctConv.FromFloatQ(c.q, b)
	}
	c.Beta = fixed.FromDenseQ(beta, c.q, c.acctConv)
	c.P = fixed.FromDenseQ(p, c.q, c.acctConv)
	n, h, m := int64(c.inputSize), int64(c.hiddenSize), int64(c.outputSize)
	c.prof.access(BankAlpha, BankWrite, n*h)
	c.prof.access(BankBias, BankWrite, h)
	c.prof.access(BankBeta, BankWrite, h*m)
	c.prof.access(BankP, BankWrite, h*h)
	c.prof.access(BankPt, BankWrite, h*h)
}

// EnableAccounting attaches per-module numeric-health accumulators:
// predict-module ops, seq_train-module ops and LoadFloat conversions are
// accounted separately so saturation and quantization-error metrics stay
// attributable to their phase. Accounting changes no datapath result and
// no cycle count (asserted by the golden-vector test); it only observes.
func (c *Core) EnableAccounting() {
	c.acctPredict = &fixed.Acct{}
	c.acctSeq = &fixed.Acct{}
	c.acctConv = &fixed.Acct{}
}

// AccountingEnabled reports whether EnableAccounting has been called.
func (c *Core) AccountingEnabled() bool { return c.acctPredict != nil }

// PredictAcct returns the predict-module accumulator (nil when accounting
// is off).
func (c *Core) PredictAcct() *fixed.Acct { return c.acctPredict }

// SeqTrainAcct returns the seq_train-module accumulator (nil when
// accounting is off).
func (c *Core) SeqTrainAcct() *fixed.Acct { return c.acctSeq }

// ConvAcct returns the LoadFloat conversion accumulator (nil when
// accounting is off).
func (c *Core) ConvAcct() *fixed.Acct { return c.acctConv }

// EnableProfiling attaches the device-level cycle profiler: every cycle
// charged from here on is attributed along (phase × kernel × unit) and
// BRAM bank accesses are counted. Like accounting, profiling changes no
// datapath result and no cycle count — it only observes (asserted by
// TestProfilingDoesNotPerturbDatapath).
func (c *Core) EnableProfiling() {
	if c.prof == nil {
		c.prof = &Prof{}
	}
}

// ProfilingEnabled reports whether EnableProfiling has been called.
func (c *Core) ProfilingEnabled() bool { return c.prof != nil }

// Prof returns the attribution profile (nil when profiling is off). The
// returned profile is live — snapshot it with a struct copy.
func (c *Core) Prof() *Prof { return c.prof }

// NoteTheta2Sync records the BRAM traffic of the θ2 ← θ1 target sync
// (the agent cloning the β bank): one read per β word under the
// theta2_sync phase. The sync costs no datapath cycles in this model —
// the copy rides the double-buffered β bank's second port.
func (c *Core) NoteTheta2Sync() {
	c.prof.access(BankBeta, BankRead, int64(c.hiddenSize)*int64(c.outputSize))
}

// Cycles returns the datapath cycles consumed so far.
func (c *Core) Cycles() int64 { return c.cycles }

// ResetCycles zeroes the cycle counter and, when profiling is enabled,
// the attribution profile — the two must stay in lockstep for the
// attribution invariant (ΣProf == Cycles) to hold.
func (c *Core) ResetCycles() {
	c.cycles = 0
	c.prof.Reset()
}

// InputSize returns n.
func (c *Core) InputSize() int { return c.inputSize }

// HiddenSize returns Ñ.
func (c *Core) HiddenSize() int { return c.hiddenSize }

// OutputSize returns m.
func (c *Core) OutputSize() int { return c.outputSize }

// charge adds executed schedule steps to the cycle counter and, when
// profiling is on, to the attribution profile under phase ph.
func (c *Core) charge(ph ProfPhase, steps []step) {
	for _, s := range steps {
		c.cycles += s.cycles
		c.prof.charge(ph, s.kern, s.unit, s.cycles, s.ops)
	}
}

// hidden computes h = ReLU(x·α + b) into c.h and records the x/α/bias/h
// bank traffic: the input DMA'd into the x bank once, then x and α
// streamed once per MAC. α is swept row by row, so each h[j] still
// accumulates x[0]·α[0][j], x[1]·α[1][j], … in order from b[j].
func (c *Core) hidden(x []fixed.Fixed) {
	if len(x) != c.inputSize {
		panic(fmt.Sprintf("fpga: input length %d, core expects %d", len(x), c.inputSize))
	}
	copy(c.h, c.Bias)
	for i, xi := range x {
		c.acct.AddScaled(c.q, c.h, xi, c.Alpha.Row(i))
	}
	for j, v := range c.h {
		c.h[j] = fixed.ReLU(v) // comparator, no arithmetic-unit cycle
	}
	n, h := int64(c.inputSize), int64(c.hiddenSize)
	c.prof.access(BankX, BankWrite, n)
	c.prof.access(BankX, BankRead, n*h)
	c.prof.access(BankAlpha, BankRead, n*h)
	c.prof.access(BankBias, BankRead, h)
	c.prof.access(BankH, BankWrite, h)
}

// Predict runs the predict module: y = h·β for one input vector. The
// output pass is attributed to the residual kernel — it is the same h·β
// dot product the seq_train residual evaluates. The result is core
// scratch, valid until the next call on the core.
func (c *Core) Predict(x []fixed.Fixed) []fixed.Fixed {
	c.acct = c.acctPredict
	c.hidden(x)
	y := c.hBeta(c.y)
	hn, m := int64(c.hiddenSize), int64(c.outputSize)
	c.charge(ProfPredict, c.sched.predict)
	c.prof.access(BankH, BankRead, m*hn)
	c.prof.access(BankBeta, BankRead, m*hn)
	return y
}

// hBeta sets y = h·β, sweeping β row by row so each y[o] accumulates
// h[0]·β[0][o], h[1]·β[1][o], … in order.
func (c *Core) hBeta(y []fixed.Fixed) []fixed.Fixed {
	clear(y)
	for j, hj := range c.h {
		c.acct.AddScaled(c.q, y, hj, c.Beta.Row(j))
	}
	return y
}

// PredictFloat is Predict with float64 conversion at the boundary (the
// AXI interface quantizes observations on the way in).
func (c *Core) PredictFloat(x []float64) []float64 {
	in := make([]fixed.Fixed, len(x))
	for i, v := range x {
		in[i] = c.q.FromFloat(v)
	}
	out := c.Predict(in)
	res := make([]float64, len(out))
	for i, v := range out {
		res[i] = c.q.Float(v)
	}
	return res
}

// PredictUsing runs the predict datapath with an alternative output-weight
// BRAM — the target network θ2's β, which shares α and b with θ1 (α is
// frozen; only β is trained). Cycle cost is identical to Predict. Panics
// unless beta is Ñ×m.
func (c *Core) PredictUsing(beta *fixed.Matrix, x []fixed.Fixed) []fixed.Fixed {
	if beta.Rows() != c.hiddenSize || beta.Cols() != c.outputSize {
		panic(fmt.Sprintf("fpga: beta is %dx%d, core expects %dx%d",
			beta.Rows(), beta.Cols(), c.hiddenSize, c.outputSize))
	}
	saved := c.Beta
	c.Beta = beta
	out := c.Predict(x)
	c.Beta = saved
	return out
}

// PredictSilent evaluates the predict datapath WITHOUT modelling it: the
// cycle counter is saved and restored around the call, the accounting
// accumulator is snapshotted and rolled back, and the profiler is
// detached for the duration (cheaper than copying its attribution grid),
// so the call is invisible to the timing model, the numeric-health
// metrics AND the cycle-attribution profile — keeping the ΣProf ==
// Cycles invariant intact. It exists for observability probes (e.g.
// measuring the post-update TD error) that the real hardware would not
// execute — an instrumentation-only read must not perturb the modelled
// device (asserted by TestPredictSilent / TestPredictSilentProfile).
func (c *Core) PredictSilent(x []fixed.Fixed) []fixed.Fixed {
	savedCycles := c.cycles
	savedProf := c.prof
	c.prof = nil
	var savedAcct fixed.Acct
	if c.acctPredict != nil {
		savedAcct = *c.acctPredict
	}
	out := c.Predict(x)
	c.cycles = savedCycles
	c.prof = savedProf
	if c.acctPredict != nil {
		*c.acctPredict = savedAcct
	}
	return out
}

// SeqTrain runs the seq_train module: one rank-1 OS-ELM update (Eq. 5 with
// k = 1, the scalar-reciprocal form) entirely in the core's fixed-point
// format:
//
//	h   = ReLU(x·α + b)
//	ph  = P·hᵀ
//	s   = 1 / (1 + h·ph)     ← the single divide that replaced SVD/QRD
//	P  -= (s·ph)·phᵀ
//	e   = t − h·β
//	β  += (s·ph)·e
//
// Denominator guard: with P positive semi-definite the scalar 1 + h·P·hᵀ
// is ≥ 1, but a saturated/poisoned P can drive it toward 0, where the
// reciprocal silently saturates to the rail and the rank-1 downdate
// shreds P and β. If the denominator falls below 0.5 (quantization jitter
// alone cannot take it that low) the update is rejected: state is left
// untouched, DenomGuardTrips increments, and the agent surfaces the trip
// as a numeric_alert-style event. A rejected update is charged only the
// schedule steps that ran before the rejection — the hardware FSM would
// bail the same way.
func (c *Core) SeqTrain(x []fixed.Fixed, t []fixed.Fixed) {
	if len(t) != c.outputSize {
		panic(fmt.Sprintf("fpga: target length %d, core expects %d", len(t), c.outputSize))
	}
	c.acct = c.acctSeq
	c.hidden(x)
	n := c.hiddenSize
	nn := int64(n) * int64(n)
	h, ph, g := c.h, c.ph, c.g

	// ph = P·hᵀ
	for i := range ph {
		ph[i] = c.acct.Dot(c.q, 0, c.P.Row(i), h)
	}
	c.prof.access(BankP, BankRead, nn)
	c.prof.access(BankH, BankRead, nn)
	c.prof.access(BankPH, BankWrite, int64(n))

	// denom = 1 + h·ph ; s = 1/denom (the gain kernel's scalar path).
	denom := c.acct.Dot(c.q, c.one, h, ph)
	c.prof.access(BankH, BankRead, int64(n))
	c.prof.access(BankPH, BankRead, int64(n))
	// The steps up to the guard are charged first, so a rejected update
	// is charged exactly the work that ran.
	c.charge(ProfSeqTrain, c.sched.seqTrain[:c.sched.bail])
	if denom < c.denomFloor {
		c.denomGuardTrips++
		return
	}
	s := c.acct.DivQ(c.q, c.one, denom)

	// g = s·ph (the Kalman-style gain, reused for both P and β updates),
	// one entry per P row; P ← P − g·phᵀ. The transposed copy (Pt bank)
	// is written alongside P to keep the ping-pong pair coherent for the
	// next iteration's column sweep.
	for i, v := range ph {
		g[i] = c.acct.MulQ(c.q, s, v)
		c.acct.SubScaled(c.q, c.P.Row(i), g[i], ph)
	}
	c.prof.access(BankPH, BankRead, int64(n))
	c.prof.access(BankP, BankRead, nn)
	c.prof.access(BankPH, BankRead, nn)
	c.prof.access(BankP, BankWrite, nn)
	c.prof.access(BankPt, BankWrite, nn)

	// e = t − h·β ; β ← β + g·e. All residuals are formed before β
	// changes: each reads only its own β column, which no other
	// column's update touches.
	e := c.hBeta(c.e)
	for o, v := range e {
		e[o] = c.acct.Sub(t[o], v)
	}
	for j, gj := range g {
		c.acct.AddScaled(c.q, c.Beta.Row(j), gj, e)
	}
	mn := int64(c.outputSize) * int64(n)
	c.charge(ProfSeqTrain, c.sched.seqTrain[c.sched.bail:])
	c.prof.access(BankH, BankRead, mn)
	c.prof.access(BankBeta, BankRead, 2*mn) // residual read + update read-modify-write
	c.prof.access(BankBeta, BankWrite, mn)
}

// BRAMWords returns the number of 32-bit words of on-chip state the core
// holds — the input to the resource model.
func (c *Core) BRAMWords() int {
	return c.Alpha.Words() + len(c.Bias) + c.Beta.Words() + c.P.Words() +
		len(c.h) + len(c.ph) + c.inputSize
}
