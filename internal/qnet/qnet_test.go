package qnet

import (
	"math"
	"testing"

	"oselmrl/internal/env"
	"oselmrl/internal/mat"
	"oselmrl/internal/replay"
	"oselmrl/internal/timing"
)

func cfgFor(v Variant) Config {
	c := DefaultConfig(v, 4, 2, 16)
	c.Seed = 7
	return c
}

// qValues reads the training agent's Q(s, ·) under θ1, or θ2 with target.
func qValues(a *Agent, state []float64, target bool) []float64 {
	q := make([]float64, a.cfg.ActionCount)
	a.f.QValues(q, state, target)
	return q
}

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{
		VariantELM:              "ELM",
		VariantOSELM:            "OS-ELM",
		VariantOSELML2:          "OS-ELM-L2",
		VariantOSELMLipschitz:   "OS-ELM-Lipschitz",
		VariantOSELML2Lipschitz: "OS-ELM-L2-Lipschitz",
	}
	for v, name := range want {
		if v.String() != name {
			t.Errorf("%d.String() = %q want %q", v, v.String(), name)
		}
	}
}

func TestVariantFlags(t *testing.T) {
	if VariantOSELM.SpectralNormalize() || !VariantOSELMLipschitz.SpectralNormalize() ||
		!VariantOSELML2Lipschitz.SpectralNormalize() {
		t.Error("SpectralNormalize flags wrong")
	}
	if VariantOSELM.UsesL2() || !VariantOSELML2.UsesL2() || !VariantOSELML2Lipschitz.UsesL2() {
		t.Error("UsesL2 flags wrong")
	}
	if VariantELM.Sequential() || !VariantOSELM.Sequential() {
		t.Error("Sequential flags wrong")
	}
}

func TestDefaultConfigPaperParams(t *testing.T) {
	c := DefaultConfig(VariantOSELML2Lipschitz, 4, 2, 64)
	if c.Epsilon1 != 0.7 || c.Epsilon2 != 0.5 || c.UpdateEvery != 2 {
		t.Error("epsilon/UPDATE_STEP defaults must match §4.1")
	}
	if c.Delta != 0.5 {
		t.Errorf("L2-Lipschitz delta = %v, paper says 0.5", c.Delta)
	}
	if DefaultConfig(VariantOSELML2, 4, 2, 64).Delta != 1.0 {
		t.Error("OS-ELM-L2 delta must be 1 per §4.1")
	}
	if c.ClipLow != -1 || c.ClipHigh != 1 {
		t.Error("clip range must be [-1, 1]")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Hidden = 0 },
		func(c *Config) { c.Epsilon1 = 1.5 },
		func(c *Config) { c.Epsilon2 = -0.1 },
		func(c *Config) { c.Gamma = 2 },
		func(c *Config) { c.ClipLow, c.ClipHigh = 1, -1 },
		func(c *Config) { c.UpdateEvery = 0 },
		func(c *Config) { c.ExploreDecay = 0 },
		func(c *Config) { c.ExploreDecay = 1.5 },
	}
	for i, mutate := range bad {
		c := cfgFor(VariantOSELM)
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestSimplifiedOutputModel: the network input size must be |state|+1 and
// the output scalar — 5 and 1 for CartPole (§3.1 / §4.2).
func TestSimplifiedOutputModel(t *testing.T) {
	a := MustNew(cfgFor(VariantOSELML2Lipschitz))
	if got := a.Theta1().InputSize(); got != 5 {
		t.Errorf("input size = %d, paper says 5 for CartPole", got)
	}
	if got := a.Theta1().OutputSize(); got != 1 {
		t.Errorf("output size = %d, must be scalar", got)
	}
}

// TestSpectralNormalizationApplied: Lipschitz variants must have
// σmax(α) == 1 after construction; others keep the raw α.
func TestSpectralNormalizationApplied(t *testing.T) {
	lip := MustNew(cfgFor(VariantOSELML2Lipschitz))
	sigma := mat.LargestSingularValue(lip.Theta1().Alpha, 500, nil)
	if math.Abs(sigma-1) > 1e-6 {
		t.Errorf("Lipschitz variant σmax(α) = %v, want 1", sigma)
	}
	plain := MustNew(cfgFor(VariantOSELM))
	sigma = mat.LargestSingularValue(plain.Theta1().Alpha, 500, nil)
	if math.Abs(sigma-1) < 0.1 {
		t.Errorf("plain variant should not be normalized (σ = %v)", sigma)
	}
}

// TestInitTrainingTriggersAtBufferFull: Algorithm 1 lines 16-19 — after Ñ
// observations, the model must be trained.
func TestInitTrainingTriggersAtBufferFull(t *testing.T) {
	cfg := cfgFor(VariantOSELML2)
	cfg.Hidden = 8
	a := MustNew(cfg)
	state := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 7; i++ {
		if err := a.Observe(replay.Transition{State: state, NextState: state}); err != nil {
			t.Fatal(err)
		}
		if a.Trained() {
			t.Fatalf("trained after only %d observations", i+1)
		}
	}
	if err := a.Observe(replay.Transition{State: state, NextState: state}); err != nil {
		t.Fatal(err)
	}
	if !a.Trained() {
		t.Fatal("must train when buffer D reaches Ñ")
	}
	if a.Counters().Calls(timing.PhaseInitTrain) != 1 {
		t.Error("init_train must be counted once")
	}
}

// TestQValueClipping: targets must be clipped into [-1, 1] even when the
// target network emits outliers.
func TestQValueClipping(t *testing.T) {
	cfg := cfgFor(VariantOSELM)
	a := MustNew(cfg)
	// Force enormous θ2 outputs by setting β directly.
	beta := a.Theta2().Beta
	for i := 0; i < beta.Rows(); i++ {
		beta.Set(i, 0, 100)
	}
	tr := replay.Transition{
		State:     []float64{1, 1, 1, 1},
		NextState: []float64{1, 1, 1, 1},
		Reward:    0.5,
	}
	y := a.target(tr)
	if y != 1 {
		t.Errorf("clipped target = %v, want 1", y)
	}
	tr.Reward = -100
	beta2 := a.Theta2().Beta
	for i := 0; i < beta2.Rows(); i++ {
		beta2.Set(i, 0, -100)
	}
	if y := a.target(tr); y != -1 {
		t.Errorf("clipped target = %v, want -1", y)
	}
}

// TestTerminalTargetIgnoresNextState: with done, the target is just the
// clipped reward (the (1-d) factor of Algorithm 1 line 22).
func TestTerminalTargetIgnoresNextState(t *testing.T) {
	a := MustNew(cfgFor(VariantOSELM))
	beta := a.Theta2().Beta
	for i := 0; i < beta.Rows(); i++ {
		beta.Set(i, 0, 100)
	}
	y := a.target(replay.Transition{
		State:     []float64{0, 0, 0, 0},
		NextState: []float64{1, 1, 1, 1},
		Reward:    -0.5,
		Done:      true,
	})
	if y != -0.5 {
		t.Errorf("terminal target = %v, want the raw reward -0.5", y)
	}
}

// TestRandomUpdateRate: with ε₂ = 0.5, roughly half the post-init steps
// trigger sequential updates (§3.2).
func TestRandomUpdateRate(t *testing.T) {
	cfg := cfgFor(VariantOSELML2)
	cfg.Hidden = 8
	a := MustNew(cfg)
	e := env.NewCartPoleV0(3)
	s := e.Reset()
	steps := 0
	for steps < 2000 {
		act := a.SelectAction(s)
		ns, r, done := e.Step(act)
		if err := a.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
			t.Fatal(err)
		}
		steps++
		s = ns
		if done {
			s = e.Reset()
		}
	}
	postInit := int64(steps - 8)
	updates := a.Counters().Calls(timing.PhaseSeqTrain)
	rate := float64(updates) / float64(postInit)
	if rate < 0.42 || rate > 0.58 {
		t.Errorf("sequential update rate = %v, want ~0.5", rate)
	}
}

// TestELMRetrainsEveryBufferFill: the batch ELM design retrains each time D
// fills (Algorithm 1 ELM path), never running sequential updates.
func TestELMRetrainsEveryBufferFill(t *testing.T) {
	cfg := cfgFor(VariantELM)
	cfg.Hidden = 8
	a := MustNew(cfg)
	state := []float64{0.1, 0, 0, 0}
	for i := 0; i < 40; i++ {
		if err := a.Observe(replay.Transition{State: state, NextState: state}); err != nil {
			t.Fatal(err)
		}
	}
	c := a.Counters()
	if got := c.Calls(timing.PhaseInitTrain); got != 5 {
		t.Errorf("ELM trained %d times in 40 steps with Ñ=8, want 5", got)
	}
	if c.Calls(timing.PhaseSeqTrain) != 0 {
		t.Error("ELM must never run sequential updates")
	}
}

// TestTargetSyncEveryUpdateStep: θ2 ← θ1 every UPDATE_STEP episodes
// (Algorithm 1 lines 23-24).
func TestTargetSyncEveryUpdateStep(t *testing.T) {
	cfg := cfgFor(VariantOSELML2)
	cfg.Hidden = 8
	a := MustNew(cfg)
	// Train enough to diverge θ1 from θ2.
	state := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 8; i++ {
		if err := a.Observe(replay.Transition{State: state, NextState: state, Reward: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if mat.Equal(a.Theta1().Beta, a.Theta2().Beta, 1e-12) {
		t.Fatal("θ1 should have diverged from θ2 after init training")
	}
	a.EndEpisode(1) // odd episode: no sync with UpdateEvery=2
	if mat.Equal(a.Theta1().Beta, a.Theta2().Beta, 1e-12) {
		t.Fatal("θ2 must not sync on odd episodes")
	}
	a.EndEpisode(2) // even: sync
	if !mat.Equal(a.Theta1().Beta, a.Theta2().Beta, 0) {
		t.Fatal("θ2 must sync on UPDATE_STEP boundary")
	}
}

// TestReinitializePreservesCounters: the reset rule redraws weights but the
// paper's time-to-complete includes failed attempts.
func TestReinitializePreservesCounters(t *testing.T) {
	cfg := cfgFor(VariantOSELML2)
	cfg.Hidden = 8
	a := MustNew(cfg)
	state := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 10; i++ {
		if err := a.Observe(replay.Transition{State: state, NextState: state}); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Counters().Calls(timing.PhaseInitTrain)
	betaBefore := a.Theta1().Beta.Clone()
	a.Reinitialize()
	if a.Trained() {
		t.Error("Reinitialize must reset training state")
	}
	if a.GlobalStep() != 0 {
		t.Error("Reinitialize must reset the step counter")
	}
	if a.Counters().Calls(timing.PhaseInitTrain) != before {
		t.Error("Reinitialize must preserve timing counters")
	}
	// Fresh weights: alpha redrawn.
	_ = betaBefore
}

// TestExplorationAnneals: the explore probability decays per episode and is
// restored on reinitialization.
func TestExplorationAnneals(t *testing.T) {
	cfg := cfgFor(VariantOSELM)
	cfg.Epsilon1 = 0.7
	cfg.ExploreDecay = 0.9
	a := MustNew(cfg)
	if math.Abs(a.ExploreProb()-0.3) > 1e-12 {
		t.Fatalf("initial explore prob %v", a.ExploreProb())
	}
	a.EndEpisode(1)
	if math.Abs(a.ExploreProb()-0.27) > 1e-12 {
		t.Fatalf("after one episode %v", a.ExploreProb())
	}
	a.Reinitialize()
	if math.Abs(a.ExploreProb()-0.3) > 1e-12 {
		t.Fatal("reset must restore exploration")
	}
}

// TestSelectActionCountsPredictions: greedy selections record ActionCount
// predict evaluations in the right phase.
func TestSelectActionCountsPredictions(t *testing.T) {
	cfg := cfgFor(VariantOSELML2)
	cfg.Epsilon1 = 1.0 // always greedy
	cfg.ExploreDecay = 1
	a := MustNew(cfg)
	state := []float64{0, 0, 0, 0}
	a.SelectAction(state)
	if got := a.Counters().Calls(timing.PhasePredictInit); got != 1 {
		t.Errorf("predict_init calls = %d, want one batched evaluation", got)
	}
	if w := a.Counters().Work(timing.PhasePredictInit); w != 2*a.f.dims.PredictFlops() {
		t.Errorf("predict_init work = %v, want ActionCount x PredictFlops", w)
	}
	if a.Counters().Calls(timing.PhasePredictSeq) != 0 {
		t.Error("no predict_seq before init training")
	}
}

// TestGreedyActionPrefersHigherQ: after forcing β, the greedy action must
// select the action with the larger Q value.
func TestGreedyActionPrefersHigherQ(t *testing.T) {
	cfg := cfgFor(VariantOSELML2)
	cfg.Hidden = 8
	a := MustNew(cfg)
	// Train the model toward: action 1 is always better.
	state := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 8; i++ {
		act := i % 2
		rwd := -0.9
		if act == 1 {
			rwd = 0.9
		}
		if err := a.Observe(replay.Transition{State: state, Action: act, Reward: rwd, NextState: state, Done: true}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Trained() {
		t.Fatal("should be trained")
	}
	q0 := qValues(a, state, false)[0]
	q1 := qValues(a, state, false)[1]
	if q1 <= q0 {
		t.Fatalf("q1=%v should exceed q0=%v after training", q1, q0)
	}
	if got := a.GreedyAction(state); got != 1 {
		t.Errorf("GreedyAction = %d", got)
	}
}

// TestDeterministicRuns: identical seeds produce identical trajectories.
func TestDeterministicRuns(t *testing.T) {
	run := func() []int {
		cfg := cfgFor(VariantOSELML2Lipschitz)
		cfg.Hidden = 8
		a := MustNew(cfg)
		e := env.NewCartPoleV0(5)
		s := e.Reset()
		var actions []int
		for i := 0; i < 500; i++ {
			act := a.SelectAction(s)
			actions = append(actions, act)
			ns, r, done := e.Step(act)
			if err := a.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
				t.Fatal(err)
			}
			s = ns
			if done {
				s = e.Reset()
			}
		}
		return actions
	}
	a1, a2 := run(), run()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("trajectories diverge at step %d", i)
		}
	}
}

// TestLipschitzBoundHolds: after training, the agent's empirical output
// difference respects the σmax(β) bound (§3.3).
func TestLipschitzBoundHolds(t *testing.T) {
	cfg := cfgFor(VariantOSELML2Lipschitz)
	cfg.Hidden = 12
	a := MustNew(cfg)
	e := env.NewCartPoleV0(6)
	s := e.Reset()
	for i := 0; i < 400; i++ {
		act := a.SelectAction(s)
		ns, r, done := e.Step(act)
		if err := a.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
			t.Fatal(err)
		}
		s = ns
		if done {
			s = e.Reset()
		}
	}
	bound := a.LipschitzBound()
	sb := a.BetaSigmaMax()
	if bound > sb*1.0001 {
		t.Errorf("Lipschitz bound %v exceeds σmax(β) %v for a normalized net", bound, sb)
	}
}
