// Package activation defines the activation functions used by the ELM,
// OS-ELM and DQN networks, together with their derivatives (needed by the
// DQN baseline's backpropagation) and Lipschitz constants (needed by the
// spectral-normalization analysis in paper §2.5/§3.3).
package activation

import "math"

// Func is a named scalar activation.
type Func struct {
	// Name identifies the activation in configs and reports.
	Name string
	// F is the forward function.
	F func(float64) float64
	// Deriv is dF/dx expressed in terms of x (the pre-activation input).
	Deriv func(float64) float64
	// Lipschitz is the global Lipschitz constant of F. The paper relies on
	// ReLU and tanh having Lipschitz constant <= 1 (§2.5).
	Lipschitz float64

	kind kind
}

// kind marks the activations that float kernels evaluate inline instead of
// calling F. A Func built outside this package has the zero kind, so it
// always goes through F.
type kind uint8

const (
	kindOther kind = iota
	kindReLU
)

// IsReLU reports whether f is this package's ReLU, whose forward pass
// kernels may inline as max(0, x) with F's exact semantics (NaN → 0).
func (f Func) IsReLU() bool { return f.kind == kindReLU }

// ReLU is G(x) = max(0, x), the activation the paper evaluates with (§4.1).
var ReLU = Func{
	Name: "relu",
	F: func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	},
	Deriv: func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	},
	Lipschitz: 1,
	kind:      kindReLU,
}

// LeakyReLU has slope alpha for negative inputs; used in ablations.
func LeakyReLU(alpha float64) Func {
	return Func{
		Name: "leaky_relu",
		F: func(x float64) float64 {
			if x > 0 {
				return x
			}
			return alpha * x
		},
		Deriv: func(x float64) float64 {
			if x > 0 {
				return 1
			}
			return alpha
		},
		Lipschitz: math.Max(1, math.Abs(alpha)),
	}
}

// Sigmoid is the logistic function, the classic ELM activation.
var Sigmoid = Func{
	Name: "sigmoid",
	F: func(x float64) float64 {
		return 1 / (1 + math.Exp(-x))
	},
	Deriv: func(x float64) float64 {
		s := 1 / (1 + math.Exp(-x))
		return s * (1 - s)
	},
	Lipschitz: 0.25,
}

// Tanh is the hyperbolic tangent.
var Tanh = Func{
	Name:      "tanh",
	F:         math.Tanh,
	Deriv:     func(x float64) float64 { t := math.Tanh(x); return 1 - t*t },
	Lipschitz: 1,
}

// Identity passes inputs through; used for linear output layers.
var Identity = Func{
	Name:      "identity",
	F:         func(x float64) float64 { return x },
	Deriv:     func(float64) float64 { return 1 },
	Lipschitz: 1,
}

// ByName returns the activation with the given name, defaulting to ReLU for
// unknown names so configuration typos fail loudly in tests rather than
// silently changing dynamics.
func ByName(name string) (Func, bool) {
	switch name {
	case "relu":
		return ReLU, true
	case "sigmoid":
		return Sigmoid, true
	case "tanh":
		return Tanh, true
	case "identity":
		return Identity, true
	}
	return ReLU, false
}
