// Package elm implements the Extreme Learning Machine (Huang et al., 2004)
// exactly as the paper's §2.1 describes: a single-hidden-layer network
// y = G(x·α + b)·β whose input weights α and bias b are random and frozen,
// and whose output weights β are solved analytically in one shot,
// β̂ = H†·t with H = G(x·α + b) (paper Eq. 1-3).
//
// The package also provides the spectral normalization of α from paper
// §3.3 / Algorithm 1 lines 2-3: α ← α / σmax(α), performed once at
// initialization (offline, so the SVD cost does not matter at runtime).
package elm

import (
	"errors"
	"fmt"

	"oselmrl/internal/activation"
	"oselmrl/internal/mat"
	"oselmrl/internal/rng"
)

// Options configures model initialization.
type Options struct {
	// InitLow and InitHigh bound the uniform distribution for α and b.
	// Algorithm 1 line 1 initializes "using a random value R ∈ [0,1]";
	// a symmetric [-1, 1] is the common ELM choice and the default here —
	// both are supported and the agent configs pick explicitly.
	InitLow, InitHigh float64
	// SpectralNormalizeAlpha divides α by its largest singular value after
	// initialization (Algorithm 1 lines 2-3), bounding α's contribution to
	// the network Lipschitz constant by 1.
	SpectralNormalizeAlpha bool
}

// DefaultOptions returns symmetric [-1,1] init without normalization.
func DefaultOptions() Options { return Options{InitLow: -1, InitHigh: 1} }

// Model is a single-hidden-layer ELM network.
type Model struct {
	// Alpha is the frozen n×Ñ input weight matrix.
	Alpha *mat.Dense
	// Bias is the frozen hidden bias vector of length Ñ.
	Bias []float64
	// Beta is the trained Ñ×m output weight matrix.
	Beta *mat.Dense
	// Act is the hidden activation G.
	Act activation.Func
	// AlphaSigmaMax records σmax(α) after initialization (before any
	// normalization), for reporting.
	AlphaSigmaMax float64

	inputSize, hiddenSize, outputSize int
}

// ErrNotTrained is returned by Predict before any training call.
var ErrNotTrained = errors.New("elm: model has no trained output weights")

// NewModel builds an ELM with random frozen α, b per opts and zero β.
func NewModel(inputSize, hiddenSize, outputSize int, act activation.Func, r *rng.RNG, opts Options) *Model {
	if inputSize <= 0 || hiddenSize <= 0 || outputSize <= 0 {
		panic(fmt.Sprintf("elm: invalid sizes %d/%d/%d", inputSize, hiddenSize, outputSize))
	}
	if opts.InitLow == 0 && opts.InitHigh == 0 {
		opts = DefaultOptions()
	}
	alpha := mat.Zeros(inputSize, hiddenSize)
	r.FillUniform(alpha.RawData(), opts.InitLow, opts.InitHigh)
	bias := make([]float64, hiddenSize)
	r.FillUniform(bias, opts.InitLow, opts.InitHigh)

	m := &Model{
		Alpha:      alpha,
		Bias:       bias,
		Beta:       mat.Zeros(hiddenSize, outputSize),
		Act:        act,
		inputSize:  inputSize,
		hiddenSize: hiddenSize,
		outputSize: outputSize,
	}
	m.AlphaSigmaMax = mat.LargestSingularValue(alpha, 200, nil)
	if opts.SpectralNormalizeAlpha {
		m.SpectralNormalizeAlpha()
	}
	return m
}

// RestoreModel rebuilds an ELM from persisted parameters. The matrices are
// used directly (not copied); dimensions are taken from their shapes.
func RestoreModel(alpha *mat.Dense, bias []float64, beta *mat.Dense, act activation.Func) *Model {
	m := &Model{
		Alpha:      alpha,
		Bias:       bias,
		Beta:       beta,
		Act:        act,
		inputSize:  alpha.Rows(),
		hiddenSize: alpha.Cols(),
		outputSize: beta.Cols(),
	}
	m.AlphaSigmaMax = mat.LargestSingularValue(alpha, 200, nil)
	return m
}

// InputSize returns n.
func (m *Model) InputSize() int { return m.inputSize }

// HiddenSize returns Ñ.
func (m *Model) HiddenSize() int { return m.hiddenSize }

// OutputSize returns m (the paper's output dimension; 1 under the
// simplified output model).
func (m *Model) OutputSize() int { return m.outputSize }

// SpectralNormalizeAlpha scales α by 1/σmax(α) (Algorithm 1 lines 2-3) and
// returns the σmax that was divided out. After the call σmax(α) == 1, so
// the network's Lipschitz constant is bounded by σmax(β)·Lip(G) (§3.3).
func (m *Model) SpectralNormalizeAlpha() float64 {
	sigma := mat.LargestSingularValue(m.Alpha, 500, nil)
	if sigma > 0 {
		mat.ScaleInPlace(1/sigma, m.Alpha)
	}
	return sigma
}

// HiddenBatch computes H = G(x·α + b) for a k×n input chunk.
func (m *Model) HiddenBatch(x *mat.Dense) *mat.Dense {
	if x.Cols() != m.inputSize {
		panic(fmt.Sprintf("elm: input has %d features, model expects %d", x.Cols(), m.inputSize))
	}
	h := mat.Mul(x, m.Alpha)
	m.activateRows(h.RawData())
	return h
}

// HiddenBatchInto computes H = G(x·α + b) into dst (k×Ñ) without
// allocating, where k = x.Rows(). Unlike HiddenBatch it uses the serial
// deterministic GEMM, so every row of dst is bit-identical to
// HiddenOneInto on the same input row — the invariant that lets the
// serving tier batch inference without changing any answer.
func (m *Model) HiddenBatchInto(dst, x *mat.Dense) {
	if x.Cols() != m.inputSize {
		panic(fmt.Sprintf("elm: input has %d features, model expects %d", x.Cols(), m.inputSize))
	}
	if dst.Rows() != x.Rows() || dst.Cols() != m.hiddenSize {
		panic(fmt.Sprintf("elm: hidden dst is %dx%d, want %dx%d", dst.Rows(), dst.Cols(), x.Rows(), m.hiddenSize))
	}
	mat.MulSerialInto(dst, x, m.Alpha)
	m.activateRows(dst.RawData())
}

// HiddenOne computes the hidden activation row for a single input vector.
// This is the k=1 fast path the FPGA's predict module implements.
func (m *Model) HiddenOne(x []float64) []float64 {
	if len(x) != m.inputSize {
		panic(fmt.Sprintf("elm: input has %d features, model expects %d", len(x), m.inputSize))
	}
	h := mat.VecMul(x, m.Alpha)
	m.activateRows(h)
	return h
}

// HiddenOneInto computes the hidden activation row into dst (length Ñ)
// without allocating — the hot path of the rank-1 sequential update.
func (m *Model) HiddenOneInto(dst, x []float64) {
	if len(x) != m.inputSize {
		panic(fmt.Sprintf("elm: input has %d features, model expects %d", len(x), m.inputSize))
	}
	mat.VecMulInto(dst, x, m.Alpha)
	m.activateRows(dst)
}

// activateRows overwrites each length-Ñ row z of d with G(z + b). ReLU is
// inlined; every other activation calls F.
func (m *Model) activateRows(d []float64) {
	nh := m.hiddenSize
	if m.Act.IsReLU() {
		for lo := 0; lo < len(d); lo += nh {
			row, b := d[lo:lo+nh], m.Bias[:nh]
			for j, z := range row {
				if z += b[j]; z > 0 {
					row[j] = z
				} else {
					row[j] = 0
				}
			}
		}
		return
	}
	f := m.Act.F
	for lo := 0; lo < len(d); lo += nh {
		row, b := d[lo:lo+nh], m.Bias[:nh]
		for j, z := range row {
			row[j] = f(z + b[j])
		}
	}
}

// ActionValuesInto evaluates the simplified output model (a scalar output
// over the input [state, e(a)]) for every action a = 0..len(q)-1 at once,
// writing y(state, a) to q[a]. The action encoding e(a) is the scalar
// index a (one input row after the state) or, with oneHot, a one-hot
// vector over len(q) rows. proj is length-Ñ scratch.
//
// The state rows of α are projected once; then one loop over the hidden
// units adds each action's α row, the bias and the activation and
// accumulates h·β. Each sum runs in the order and with the zero-operand
// skip of VecMulInto, so q[a] is bit-identical to HiddenOneInto followed
// by VecMulInto over the encoded input.
func (m *Model) ActionValuesInto(q, proj, state []float64, oneHot bool) {
	ns, enc := len(state), 1
	if oneHot {
		enc = len(q)
	}
	if m.outputSize != 1 || ns+enc != m.inputSize || len(proj) != m.hiddenSize {
		panic(fmt.Sprintf("elm: %d-feature state with %d-row action encoding and %d-unit scratch on a %d/%d/%d model",
			ns, enc, len(proj), m.inputSize, m.hiddenSize, m.outputSize))
	}
	nh := m.hiddenSize
	alpha := m.Alpha.RawData()
	for j := range proj {
		proj[j] = 0
	}
	for i, x := range state {
		if x == 0 {
			continue
		}
		row := alpha[i*nh : (i+1)*nh]
		for j, w := range row {
			proj[j] += x * w
		}
	}
	// actionRow returns the α row action a adds and its input value.
	actionRow := func(a int) ([]float64, float64) {
		row, x := ns, float64(a)
		if oneHot {
			row, x = ns+a, 1
		}
		return alpha[row*nh : (row+1)*nh], x
	}
	// Actions go two per pass, so the two sums' add latencies overlap; an
	// odd last action pairs with itself.
	for a := 0; a < len(q); a += 2 {
		a1 := min(a+1, len(q)-1)
		r0, x0 := actionRow(a)
		r1, x1 := actionRow(a1)
		q[a], q[a1] = m.actionPair(proj, r0, r1, x0, x1)
	}
}

// actionPair returns Σⱼ βⱼ·G(projⱼ + x·rowⱼ + bⱼ) for (r0, x0) and
// (r1, x1), skipping x = 0 and zero activations as VecMulInto skips zero
// operands.
func (m *Model) actionPair(proj, r0, r1 []float64, x0, x1 float64) (y0, y1 float64) {
	nh := len(proj)
	r0, r1, b, beta := r0[:nh], r1[:nh], m.Bias[:nh], m.Beta.RawData()[:nh]
	if m.Act.IsReLU() {
		for j, p := range proj {
			z0, z1 := p, p
			if x0 != 0 {
				z0 += x0 * r0[j]
			}
			if x1 != 0 {
				z1 += x1 * r1[j]
			}
			if z0 += b[j]; z0 > 0 {
				y0 += z0 * beta[j]
			}
			if z1 += b[j]; z1 > 0 {
				y1 += z1 * beta[j]
			}
		}
		return y0, y1
	}
	f := m.Act.F
	for j, p := range proj {
		z0, z1 := p, p
		if x0 != 0 {
			z0 += x0 * r0[j]
		}
		if x1 != 0 {
			z1 += x1 * r1[j]
		}
		if h := f(z0 + b[j]); h != 0 {
			y0 += h * beta[j]
		}
		if h := f(z1 + b[j]); h != 0 {
			y1 += h * beta[j]
		}
	}
	return y0, y1
}

// PredictBatch computes y = H·β for a k×n input chunk.
func (m *Model) PredictBatch(x *mat.Dense) *mat.Dense {
	return mat.Mul(m.HiddenBatch(x), m.Beta)
}

// PredictOne computes the m-vector output for a single input.
func (m *Model) PredictOne(x []float64) []float64 {
	return mat.VecMul(m.HiddenOne(x), m.Beta)
}

// TrainBatch solves β from a k×n input chunk and k×m target chunk in one
// shot. With delta == 0 it uses the SVD pseudo-inverse β = H†·t (Eq. 3);
// with delta > 0 it solves the L2-regularized normal equations
// β = (HᵀH + δI)⁻¹ Hᵀ t — the ReOS-ELM initial training of Eq. 8, which is
// also how the CPU-side init_train runs on the PYNQ platform.
func (m *Model) TrainBatch(x, t *mat.Dense, delta float64) error {
	if t.Rows() != x.Rows() || t.Cols() != m.outputSize {
		return fmt.Errorf("elm: target shape %dx%d does not match inputs %d / outputs %d",
			t.Rows(), t.Cols(), x.Rows(), m.outputSize)
	}
	h := m.HiddenBatch(x)
	if delta > 0 {
		ht := h.T()
		gram := mat.AddScaledIdentity(mat.Mul(ht, h), delta)
		inv, err := mat.Inverse(gram)
		if err != nil {
			return fmt.Errorf("elm: regularized solve: %w", err)
		}
		m.Beta = mat.MulT3(inv, ht, t)
		return nil
	}
	pinv, err := mat.PseudoInverse(h, 0)
	if err != nil {
		return fmt.Errorf("elm: pseudo-inverse: %w", err)
	}
	m.Beta = mat.Mul(pinv, t)
	return nil
}

// BetaSigmaMax returns σmax(β) by power iteration — the quantity that
// bounds the network's Lipschitz constant after spectral normalization of
// α (paper §3.3: "Lipschitz constant of OS-ELM is σmax(βi) or less").
func (m *Model) BetaSigmaMax() float64 {
	return mat.LargestSingularValue(m.Beta, 200, nil)
}

// LipschitzBound returns the product bound σmax(α)·Lip(G)·σmax(β) on the
// network's Lipschitz constant (paper §2.5).
func (m *Model) LipschitzBound() float64 {
	sa := mat.LargestSingularValue(m.Alpha, 200, nil)
	return sa * m.Act.Lipschitz * m.BetaSigmaMax()
}

// Clone deep-copies the model (used for the fixed target network θ2).
func (m *Model) Clone() *Model {
	bias := make([]float64, len(m.Bias))
	copy(bias, m.Bias)
	return &Model{
		Alpha:         m.Alpha.Clone(),
		Bias:          bias,
		Beta:          m.Beta.Clone(),
		Act:           m.Act,
		AlphaSigmaMax: m.AlphaSigmaMax,
		inputSize:     m.inputSize,
		hiddenSize:    m.hiddenSize,
		outputSize:    m.outputSize,
	}
}

// CopyWeightsFrom copies β (and α/b, which are frozen but may differ after
// re-initialization) from src — the θ2 ← θ1 sync of Algorithm 1 line 24.
func (m *Model) CopyWeightsFrom(src *Model) {
	if m.inputSize != src.inputSize || m.hiddenSize != src.hiddenSize || m.outputSize != src.outputSize {
		panic("elm: CopyWeightsFrom shape mismatch")
	}
	m.Alpha.CopyFrom(src.Alpha)
	copy(m.Bias, src.Bias)
	m.Beta.CopyFrom(src.Beta)
	m.AlphaSigmaMax = src.AlphaSigmaMax
}
