// Package qnet implements the paper's primary contribution: the ELM
// Q-Network and OS-ELM Q-Network reinforcement-learning agents of
// Algorithm 1, with the four stabilization techniques of §3:
//
//  1. Simplified output model (§3.1): the network maps the concatenation of
//     state and action to a *scalar* Q value, so the input size is
//     |state| + 1 (5 for CartPole) and the output size is 1.
//  2. Q-value clipping (§3.1): Bellman targets are clipped to [-1, 1].
//  3. Random update (§3.2): each step triggers a sequential update only
//     with probability ε₂ — the buffer-free replacement for experience
//     replay.
//  4. Spectral normalization for α + L2 regularization for β (§3.3):
//     α ← α/σmax(α) once at init, and δI added in the initial training.
//
// Algorithm 1 is written once, as Driver, over a Learner that supplies
// the arithmetic: Q values under θ1 or θ2, init training on buffer D, one
// sequential update, the θ2 sync, the weight draw and the per-phase cost.
// There are two learners:
//
//   - Agent's float learner, over internal/oselm, runs every design of
//     §4.1 — batch ELM and the four OS-ELM variants (Variant) — with the
//     scalar or one-hot action encoding, the simplified or standard output
//     model and plain or Double Q targets. It charges flops on the
//     PyTorch/Cortex-A9 profile.
//   - internal/fpga's fixed-point learner is design (7): OS-ELM-L2-
//     Lipschitz with ReLU, the scalar encoding, the simplified output
//     model and plain targets only. It charges datapath cycles.
//
// The driver rejects at construction any config its learner cannot run.
// The DQN baseline lives in internal/dqn.
package qnet

import (
	"fmt"
	"math"

	"oselmrl/internal/activation"
	"oselmrl/internal/elm"
	"oselmrl/internal/mat"
	"oselmrl/internal/obs"
	"oselmrl/internal/oselm"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/timing"
)

// Variant selects which of the paper's ELM/OS-ELM designs to run (§4.1
// designs (1)-(5)).
type Variant int

const (
	// VariantELM is design (1): batch ELM with simplified output model and
	// Q-value clipping; it retrains from buffer D each time D fills.
	VariantELM Variant = iota
	// VariantOSELM is design (2): OS-ELM with simplified output model,
	// Q-value clipping and random update, no regularization.
	VariantOSELM
	// VariantOSELML2 is design (3): OS-ELM + L2 regularization for β.
	VariantOSELML2
	// VariantOSELMLipschitz is design (4): OS-ELM + spectral normalization
	// for α.
	VariantOSELMLipschitz
	// VariantOSELML2Lipschitz is design (5): both techniques — the paper's
	// headline design and the one the FPGA implements.
	VariantOSELML2Lipschitz
)

// String returns the paper's name for the design.
func (v Variant) String() string {
	switch v {
	case VariantELM:
		return "ELM"
	case VariantOSELM:
		return "OS-ELM"
	case VariantOSELML2:
		return "OS-ELM-L2"
	case VariantOSELMLipschitz:
		return "OS-ELM-Lipschitz"
	case VariantOSELML2Lipschitz:
		return "OS-ELM-L2-Lipschitz"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// SpectralNormalize reports whether the variant normalizes α (§3.3).
func (v Variant) SpectralNormalize() bool {
	return v == VariantOSELMLipschitz || v == VariantOSELML2Lipschitz
}

// UsesL2 reports whether the variant regularizes the initial training.
func (v Variant) UsesL2() bool {
	return v == VariantOSELML2 || v == VariantOSELML2Lipschitz
}

// Sequential reports whether the variant performs OS-ELM sequential
// updates (false only for batch ELM).
func (v Variant) Sequential() bool { return v != VariantELM }

// Config holds the hyperparameters of Algorithm 1 with the paper's §4.1
// defaults.
type Config struct {
	// Variant selects the design.
	Variant Variant
	// ObservationSize and ActionCount describe the environment.
	ObservationSize, ActionCount int
	// Hidden is Ñ, the hidden-layer width.
	Hidden int
	// Epsilon1 is the initial probability of acting greedily (Algorithm 1
	// line 10: greedy iff r₁ < ε₁). Paper: 0.7.
	Epsilon1 float64
	// ExploreDecay multiplies the exploration probability (1 − ε₁) after
	// every episode. The paper states a constant ε₁ = 0.7, but its Figure 4
	// training curves plateau at a flat 200 steps, which is unreachable
	// with a permanent 30% random-action rate (see DESIGN.md §5) — so the
	// exploration rate must anneal. 1 keeps the literal constant-ε
	// algorithm; DefaultConfig uses 0.99.
	ExploreDecay float64
	// Epsilon2 is the random-update probability (line 21). Paper: 0.5.
	Epsilon2 float64
	// Gamma is the discount rate γ.
	Gamma float64
	// Delta is the L2 regularization parameter δ for the initial training;
	// ignored unless the variant uses L2. Paper: 1 for OS-ELM-L2, 0.5 for
	// OS-ELM-L2-Lipschitz.
	Delta float64
	// UpdateEvery is UPDATE_STEP: θ2 ← θ1 every this many episodes. Paper: 2.
	UpdateEvery int
	// ClipLow and ClipHigh bound the Bellman targets. Paper: -1, 1.
	ClipLow, ClipHigh float64
	// Activation is the hidden activation; the paper uses ReLU.
	Activation activation.Func
	// Seed drives every random choice the agent makes.
	Seed uint64
	// InitLow and InitHigh bound the uniform weight init (Algorithm 1
	// line 1 uses [0,1]; [-1,1] is the common ELM default). Zero values
	// select [-1, 1].
	InitLow, InitHigh float64
	// OneHotActions encodes the action as a one-hot vector instead of the
	// paper's scalar index, making the input size |state| + |actions|
	// (6 instead of 5 for CartPole). Extension beyond the paper; the
	// scalar encoding is the default and what §4.2 sizes the core for.
	OneHotActions bool
	// DoubleQ selects Double Q-learning targets (van Hasselt): the next
	// action is chosen by argmax over θ1 but its value is read from θ2,
	// reducing the max-operator's overestimation bias. Extension beyond
	// the paper (ablation X3).
	DoubleQ bool
	// StandardOutputModel uses the left-hand network of the paper's
	// Figure 2 — input is the state alone and the output layer has one Q
	// value per action, as in DQN — instead of the simplified output model
	// the paper proposes. One prediction evaluates all actions, but the
	// one-shot OS-ELM update must supply a full target vector, so the
	// untaken actions are trained toward their own current predictions
	// (a no-op target). Kept for the Figure 2 design-space comparison.
	StandardOutputModel bool
}

// DefaultConfig returns the paper's §4.1 parameters for a variant.
func DefaultConfig(v Variant, obsSize, actions, hidden int) Config {
	delta := 0.0
	switch v {
	case VariantOSELML2:
		delta = 1.0
	case VariantOSELML2Lipschitz:
		delta = 0.5
	}
	return Config{
		Variant:         v,
		ObservationSize: obsSize,
		ActionCount:     actions,
		Hidden:          hidden,
		Epsilon1:        0.7,
		ExploreDecay:    0.99,
		Epsilon2:        0.5,
		Gamma:           0.99,
		Delta:           delta,
		UpdateEvery:     2,
		ClipLow:         -1,
		ClipHigh:        1,
		Activation:      activation.ReLU,
		Seed:            1,
		InitLow:         -1,
		InitHigh:        1,
	}
}

func (c *Config) validate() error {
	if c.ObservationSize <= 0 || c.ActionCount <= 0 || c.Hidden <= 0 {
		return fmt.Errorf("qnet: invalid dimensions obs=%d actions=%d hidden=%d",
			c.ObservationSize, c.ActionCount, c.Hidden)
	}
	if c.Epsilon1 < 0 || c.Epsilon1 > 1 || c.Epsilon2 < 0 || c.Epsilon2 > 1 {
		return fmt.Errorf("qnet: epsilons must be in [0,1]: %g, %g", c.Epsilon1, c.Epsilon2)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("qnet: gamma must be in [0,1]: %g", c.Gamma)
	}
	if c.ClipLow >= c.ClipHigh {
		return fmt.Errorf("qnet: clip range [%g, %g] is empty", c.ClipLow, c.ClipHigh)
	}
	if c.UpdateEvery <= 0 {
		return fmt.Errorf("qnet: UpdateEvery must be positive")
	}
	if c.ExploreDecay <= 0 || c.ExploreDecay > 1 {
		return fmt.Errorf("qnet: ExploreDecay must be in (0, 1]: %g", c.ExploreDecay)
	}
	if c.StandardOutputModel && c.OneHotActions {
		return fmt.Errorf("qnet: StandardOutputModel and OneHotActions are mutually exclusive")
	}
	if c.Activation.F == nil {
		c.Activation = activation.ReLU
	}
	return nil
}

// NetworkDims returns the input, hidden and output widths of the config's
// networks: [state, action] → 1 for the simplified output model (the
// action one-hot with OneHotActions), state → one Q per action for the
// standard one.
func (c Config) NetworkDims() timing.OSELMDims {
	switch {
	case c.StandardOutputModel:
		return timing.OSELMDims{In: c.ObservationSize, Hidden: c.Hidden, Out: c.ActionCount}
	case c.OneHotActions:
		return timing.OSELMDims{In: c.ObservationSize + c.ActionCount, Hidden: c.Hidden, Out: 1}
	}
	return timing.OSELMDims{In: c.ObservationSize + 1, Hidden: c.Hidden, Out: 1}
}

// Agent is an ELM or OS-ELM Q-Network agent: the Algorithm 1 driver over
// the float learner.
type Agent struct {
	*Driver
	f *FloatLearner
}

// New builds an agent from cfg.
func New(cfg Config) (*Agent, error) {
	f := &FloatLearner{}
	d, err := NewDriver(cfg, f)
	if err != nil {
		return nil, err
	}
	return &Agent{Driver: d, f: f}, nil
}

// MustNew is New that panics on configuration errors (tests, examples).
func MustNew(cfg Config) *Agent {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// BetaSigmaMax exposes σmax(β), the agent's Lipschitz bound after spectral
// normalization (§3.3), for the stability diagnostics.
func (a *Agent) BetaSigmaMax() float64 { return a.f.theta1.BetaSigmaMax() }

// LipschitzBound returns σmax(α)·Lip(G)·σmax(β) for θ1.
func (a *Agent) LipschitzBound() float64 { return a.f.theta1.LipschitzBound() }

// Theta1 exposes the online model for white-box tests.
func (a *Agent) Theta1() *oselm.Model { return a.f.theta1 }

// Theta2 exposes the target model for white-box tests.
func (a *Agent) Theta2() *oselm.Model { return a.f.theta2 }

// RestoreModels installs persisted θ1/θ2 models (internal/persist). The
// models must match the agent's dimensions.
func (a *Agent) RestoreModels(theta1, theta2 *oselm.Model) error {
	want := a.cfg.NetworkDims()
	for _, m := range []*oselm.Model{theta1, theta2} {
		if m.InputSize() != want.In || m.HiddenSize() != want.Hidden || m.OutputSize() != want.Out {
			return fmt.Errorf("qnet: restored model is %d/%d/%d, agent expects %d/%d/%d",
				m.InputSize(), m.HiddenSize(), m.OutputSize(), want.In, want.Hidden, want.Out)
		}
	}
	a.f.theta1 = theta1
	a.f.theta2 = theta2
	return nil
}

// FloatLearner is the float64 Learner: θ1 and θ2 are OS-ELM models (batch
// ELM for VariantELM), and work is charged in flops on the PyTorch
// Cortex-A9 profile (§4.3). The fixed-point learner runs one as its CPU
// side before the core is loaded.
type FloatLearner struct {
	cfg  Config
	dims timing.OSELMDims
	// theta1 and theta2 are Qθ1 and the fixed target Qθ2.
	theta1, theta2 *oselm.Model

	// in holds the network input [state..., action], hid the hidden row
	// (or the state projection) and y one target row, so the hot path
	// does not allocate.
	in, hid, y []float64
}

func (l *FloatLearner) Setup(cfg Config) error {
	l.cfg = cfg
	l.dims = cfg.NetworkDims()
	l.in = make([]float64, l.dims.In)
	l.hid = make([]float64, cfg.Hidden)
	l.y = make([]float64, 1)
	return nil
}

func (l *FloatLearner) Draw(r *rng.RNG) {
	opts := elm.Options{
		InitLow:                l.cfg.InitLow,
		InitHigh:               l.cfg.InitHigh,
		SpectralNormalizeAlpha: l.cfg.Variant.SpectralNormalize(),
	}
	delta := 0.0
	if l.cfg.Variant.UsesL2() {
		delta = l.cfg.Delta
	}
	base := elm.NewModel(l.dims.In, l.cfg.Hidden, l.dims.Out, l.cfg.Activation, r, opts)
	l.theta1 = oselm.New(base, delta)
	l.theta2 = l.theta1.Clone() // Algorithm 1 line 4: θ2 ← θ1
}

func (l *FloatLearner) Ready() bool { return l.theta1.Initialized() }

// Theta1 returns the online model.
func (l *FloatLearner) Theta1() *oselm.Model { return l.theta1 }

func (l *FloatLearner) QValues(q, state []float64, target bool) {
	m := l.theta1
	if target {
		m = l.theta2
	}
	qValuesInto(q, l.hid, &l.cfg, m, state)
}

// PeekQValues is QValues under θ1: the float learner's meter counts
// charged phases only.
func (l *FloatLearner) PeekQValues(q, state []float64) { l.QValues(q, state, false) }

// encode writes the simplified-output-model input into dst: [state...,
// action] with the action as a scalar by default (the paper's input size
// for CartPole is 5 = 4 states + 1 action), or [state..., onehot(action)]
// when OneHotActions is set.
func (l *FloatLearner) encode(dst, state []float64, action int) []float64 {
	copy(dst, state)
	if !l.cfg.OneHotActions {
		dst[len(state)] = float64(action)
		return dst
	}
	for i := 0; i < l.cfg.ActionCount; i++ {
		v := 0.0
		if i == action {
			v = 1
		}
		dst[len(state)+i] = v
	}
	return dst
}

func (l *FloatLearner) InitTrain(trans []replay.Transition, y []float64) error {
	k := len(trans)
	x := mat.Zeros(k, l.dims.In)
	t := mat.Zeros(k, l.dims.Out)
	for i, tr := range trans {
		if l.cfg.StandardOutputModel {
			x.SetRow(i, tr.State)
			// The taken action trains toward the Bellman target; untaken
			// actions toward their current predictions (no-op targets).
			cur := l.theta1.PredictOne(tr.State)
			cur[tr.Action] = y[i]
			t.SetRow(i, cur)
			continue
		}
		x.SetRow(i, l.encode(l.in, tr.State, tr.Action))
		t.Set(i, 0, y[i])
	}
	if l.cfg.Variant.Sequential() {
		return l.theta1.InitTrain(x, t)
	}
	// Batch ELM: with L2 off this is the pseudo-inverse solve of Eq. 3.
	// A tiny ridge keeps the Gram matrix invertible when D contains
	// duplicate states, matching the pseudo-inverse's truncation.
	err := l.theta1.Model.TrainBatch(x, t, 1e-8)
	// ELM has no separate sequential phase; keep θ2 in sync with the
	// freshly trained θ1 so targets are not computed from the initial
	// random network forever (see DESIGN.md interpretation note).
	l.theta2.CopyStateFrom(l.theta1)
	return err
}

func (l *FloatLearner) SeqTrain(t replay.Transition, y float64, probe bool) (float64, error) {
	if l.cfg.StandardOutputModel {
		cur := l.theta1.PredictOne(t.State)
		pred := cur[t.Action]
		cur[t.Action] = y
		return pred, l.theta1.SeqTrainOne(t.State, cur)
	}
	in := l.encode(l.in, t.State, t.Action)
	pred := math.NaN()
	if probe {
		pred = l.theta1.PredictOne(in)[0]
	}
	l.y[0] = y
	return pred, l.theta1.SeqTrainOne(in, l.y)
}

func (l *FloatLearner) SyncTarget() bool {
	l.theta2.CopyStateFrom(l.theta1)
	return true
}

func (l *FloatLearner) Health() oselm.NumericHealth { return l.theta1.Health() }

func (l *FloatLearner) Mark() int64 { return 0 }

// Charge books flops: every phase counts the ActionCount evaluations a
// NumPy/PyTorch implementation stacks into one batched forward pass (for
// init training, one per transition of D), plus the training itself.
func (l *FloatLearner) Charge(c *timing.Counters, p timing.Phase, _ int64, n int, _ map[string]float64) float64 {
	var work float64
	switch p {
	case timing.PhaseInitTrain:
		work = float64(n*l.cfg.ActionCount)*l.dims.PredictFlops() + l.dims.InitTrainFlops(n)
	case timing.PhaseSeqTrain:
		work = float64(l.cfg.ActionCount)*l.dims.PredictFlops() + l.dims.SeqTrainFlops()
	default:
		work = float64(l.cfg.ActionCount) * l.dims.PredictFlops()
	}
	c.Add(p, work)
	return timing.CortexA9PyTorch.Seconds(p, 1, work)
}

func (l *FloatLearner) SetObserver(*obs.Emitter) {}

func (l *FloatLearner) Flush() {}
