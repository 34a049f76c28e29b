package qnet

import (
	"fmt"
	"math"
	"testing"

	"oselmrl/internal/activation"
	"oselmrl/internal/mat"
	"oselmrl/internal/oselm"
	"oselmrl/internal/rng"
)

// refCase is one network shape of the reference test: CartPole's four
// state features, `actions` actions in the given encoding, `hidden` units
// and a hidden activation.
type refCase struct {
	hidden, actions int
	oneHot          bool
	act             activation.Func
}

func (c refCase) String() string {
	enc := "scalar"
	if c.oneHot {
		enc = "onehot"
	}
	return fmt.Sprintf("%s/%s/%dact/%d", c.act.Name, enc, c.actions, c.hidden)
}

// refCases spans widths {1, 7, 64, 1024}, both action encodings, an even
// and an odd action count, and ReLU (inlined), leaky ReLU and tanh
// (called through F).
var refCases = func() []refCase {
	var cs []refCase
	for _, act := range []activation.Func{activation.ReLU, activation.LeakyReLU(0.01), activation.Tanh} {
		for _, oneHot := range []bool{false, true} {
			for _, actions := range []int{2, 3} {
				for _, hidden := range []int{1, 7, 64, 1024} {
					cs = append(cs, refCase{hidden: hidden, actions: actions, oneHot: oneHot, act: act})
				}
			}
		}
	}
	return cs
}()

// refAgents caches one agent per case (the 1024-unit models take a while
// to build), so the fuzz target does not rebuild them per input.
var refAgents = map[int]*Agent{}

// refAgent builds case i's agent with random β on both networks, so every
// Q value depends on every hidden unit.
func refAgent(i int) *Agent {
	if a, ok := refAgents[i]; ok {
		return a
	}
	c := refCases[i]
	cfg := DefaultConfig(VariantOSELML2Lipschitz, 4, c.actions, c.hidden)
	cfg.OneHotActions = c.oneHot
	cfg.Activation = c.act
	cfg.Seed = uint64(i + 1)
	a := MustNew(cfg)
	r := rng.New(uint64(100 + i))
	r.FillUniform(a.f.theta1.Beta.RawData(), -1, 1)
	r.FillUniform(a.f.theta2.Beta.RawData(), -1, 1)
	refAgents[i] = a
	return a
}

// referenceInput encodes [state, e(action)] as Agent.encode does.
func referenceInput(cfg Config, state []float64, action int) []float64 {
	in := make([]float64, len(state)+1)
	if cfg.OneHotActions {
		in = make([]float64, len(state)+cfg.ActionCount)
	}
	copy(in, state)
	if cfg.OneHotActions {
		in[len(state)+action] = 1
	} else {
		in[len(state)] = float64(action)
	}
	return in
}

// referenceQ is Q(s, a) the long way: the encoded input through a
// VecMulInto hidden pass with G applied through F, then a VecMulInto
// output pass.
func referenceQ(m *oselm.Model, in []float64) (q float64, hid []float64) {
	hid = make([]float64, m.HiddenSize())
	mat.VecMulInto(hid, in, m.Alpha)
	for j := range hid {
		hid[j] = m.Act.F(hid[j] + m.Bias[j])
	}
	out := make([]float64, 1)
	mat.VecMulInto(out, hid, m.Beta)
	return out[0], hid
}

// sameBits reports whether a and b are the same float64 bit pattern, or
// both NaN: which NaN an add returns when both operands are NaN depends
// on operand order, which the compiler picks per call site (the GEMM and
// matrix-vector paths already differ there), so NaN payloads and signs
// are not compared. Signed zeros are.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkReference asserts, bit for bit, that QValues, every row of
// QValuesBatch, the training agent's Q values and greedy max, and the
// HiddenOneInto/HiddenBatchInto rows all equal the reference.
func checkReference(t *testing.T, a *Agent, states [][]float64) {
	t.Helper()
	cfg := a.cfg
	m := a.f.theta1
	ev := a.NewEvaluator()
	qm, err := ev.QValuesBatch(states)
	if err != nil {
		t.Fatal(err)
	}
	batch := append([]float64(nil), qm.RawData()...)
	hid := make([]float64, cfg.Hidden)
	x := mat.Zeros(cfg.ActionCount, m.InputSize())
	h := mat.Zeros(cfg.ActionCount, cfg.Hidden)
	for i, s := range states {
		want := make([]float64, cfg.ActionCount)
		wantHid := make([][]float64, cfg.ActionCount)
		wantBest := math.Inf(-1)
		for act := range want {
			in := referenceInput(cfg, s, act)
			want[act], wantHid[act] = referenceQ(m, in)
			if want[act] > wantBest {
				wantBest = want[act]
			}
			x.SetRow(act, in)
			m.HiddenOneInto(hid, in)
			for j, v := range hid {
				if !sameBits(v, wantHid[act][j]) {
					t.Fatalf("state %v action %d: HiddenOneInto[%d] = %v, reference %v", s, act, j, v, wantHid[act][j])
				}
			}
		}
		m.HiddenBatchInto(h, x)
		for act := range want {
			for j, v := range h.Row(act) {
				if !sameBits(v, wantHid[act][j]) {
					t.Fatalf("state %v action %d: HiddenBatchInto[%d] = %v, reference %v", s, act, j, v, wantHid[act][j])
				}
			}
		}

		qs, err := ev.QValues(s)
		if err != nil {
			t.Fatal(err)
		}
		agentQs := qValues(a, s, false)
		for act, w := range want {
			for _, got := range []struct {
				path string
				q    float64
			}{
				{"QValues", qs[act]},
				{"QValuesBatch", batch[i*cfg.ActionCount+act]},
				{"FloatLearner.QValues", agentQs[act]},
			} {
				if !sameBits(got.q, w) {
					t.Fatalf("state %v action %d: %s = %v (%#x), reference %v (%#x)",
						s, act, got.path, got.q, math.Float64bits(got.q), w, math.Float64bits(w))
				}
			}
		}
		if best, _ := a.maxQ(s, false); !sameBits(best, wantBest) {
			t.Fatalf("state %v: greedy max %v, reference %v", s, best, wantBest)
		}
	}
}

// specialValues are the state features the reference test mixes in.
var specialValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072e-308, math.MaxFloat64, 1, -1,
}

func TestQValuesMatchReference(t *testing.T) {
	for i, c := range refCases {
		t.Run(c.String(), func(t *testing.T) {
			a := refAgent(i)
			r := rng.New(uint64(7 + i))
			states := [][]float64{{0, 0, 0, 0}}
			for _, v := range specialValues {
				states = append(states, []float64{v, v, v, v}, []float64{0.1, v, -0.2, 0.3})
			}
			for k := 0; k < 40; k++ {
				s := make([]float64, 4)
				for j := range s {
					if r.Float64() < 0.3 {
						s[j] = specialValues[r.Intn(len(specialValues))]
					} else {
						s[j] = r.Uniform(-2, 2)
					}
				}
				states = append(states, s)
			}
			checkReference(t, a, states)
		})
	}
}

// FuzzQValues checks one state against the reference on the case picked
// by c (mod the number of cases).
func FuzzQValues(f *testing.F) {
	f.Add(uint8(0), 0.1, -0.2, 0.03, 0.4)
	f.Add(uint8(3), math.NaN(), math.Inf(1), math.Copysign(0, -1), 5e-324)
	f.Fuzz(func(t *testing.T, c uint8, s0, s1, s2, s3 float64) {
		a := refAgent(int(c) % len(refCases))
		checkReference(t, a, [][]float64{{s0, s1, s2, s3}})
	})
}
