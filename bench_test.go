// Benchmarks regenerating the paper's tables and figures (see DESIGN.md's
// per-experiment index). Each benchmark either measures the kernel whose
// cost the figure plots (reported as ns/op plus modelled device time) or
// runs a compact version of the experiment and reports its outcome as
// custom metrics. The full-scale regenerations live in cmd/traincurve,
// cmd/timetocomplete and cmd/fpgares; these benches make every experiment
// reproducible from `go test -bench`.
package oselmrl_test

import (
	"fmt"
	"math"
	"testing"

	"oselmrl"
	"oselmrl/internal/activation"
	"oselmrl/internal/dqn"
	"oselmrl/internal/elm"
	"oselmrl/internal/env"
	"oselmrl/internal/fixed"
	"oselmrl/internal/fleet"
	"oselmrl/internal/fpga"
	"oselmrl/internal/harness"
	"oselmrl/internal/mat"
	"oselmrl/internal/onlad"
	"oselmrl/internal/oselm"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/timing"
)

// paperHiddenSizes are the hidden widths the paper sweeps (§4.2-4.4).
var paperHiddenSizes = []int{32, 64, 128, 192}

// ---------------------------------------------------------------------------
// Table 3: FPGA resource utilization (experiment E2).

func BenchmarkTable3Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fpga.Table3Sweep()
		if rows[4].Feasible {
			b.Fatal("256-unit design must not fit")
		}
	}
	// Report the headline row as metrics: BRAM% at 192 units.
	u := fpga.EstimateResources(5, 192)
	bramPct, _, _, _ := u.Percent(fpga.XC7Z020)
	b.ReportMetric(bramPct, "BRAM%@192")
}

// ---------------------------------------------------------------------------
// Figure 4: training curves (experiment E3). Each sub-benchmark trains one
// design for a fixed episode budget and reports the best 100-episode moving
// average as a metric — the quantity Figure 4's dark lines plot.

func trainBudget(d harness.Design) int {
	if d == harness.DesignDQN {
		return 150 // backprop per step: keep the bench affordable
	}
	return 600
}

func BenchmarkFigure4TrainingCurve(b *testing.B) {
	for _, d := range harness.TrainingCurveDesigns {
		d := d
		b.Run(fmt.Sprintf("%s/32units", d), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				agent, err := harness.NewAgent(d, 4, 2, 32, uint64(i)+4)
				if err != nil {
					b.Fatal(err)
				}
				task := env.NewShaped(env.NewCartPoleV0(uint64(i)+104), env.RewardSurvival)
				cfg := harness.RunConfigFor(d, harness.Defaults())
				cfg.MaxEpisodes = trainBudget(d)
				res := harness.Run(agent, task, cfg)
				best = 0
				for _, p := range res.Curve {
					if p.MovingAvg > best {
						best = p.MovingAvg
					}
				}
			}
			b.ReportMetric(best, "best_100ep_avg")
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 5: execution time to complete (experiment E4). The figure's cost
// driver is the per-step work of each design; each sub-benchmark measures
// one agent step (action selection + observation/update) on a live run and
// reports the modelled device time per step alongside ns/op.

// stepper drives an agent through an endless stream of environment steps.
type stepper struct {
	agent harness.Agent
	env   env.Env
	state []float64
	ep    int
}

func newStepper(b *testing.B, d harness.Design, hidden int) *stepper {
	agent, err := harness.NewAgent(d, 4, 2, hidden, 7)
	if err != nil {
		b.Skipf("%s at %d units: %v", d, hidden, err)
	}
	e := env.NewShaped(env.NewCartPoleV0(107), env.RewardSurvival)
	return &stepper{agent: agent, env: e, state: e.Reset(), ep: 1}
}

func (s *stepper) step(b *testing.B) {
	act := s.agent.SelectAction(s.state)
	next, r, done := s.env.Step(act)
	if err := s.agent.Observe(replay.Transition{
		State: s.state, Action: act, Reward: r, NextState: next, Done: done,
	}); err != nil {
		b.Fatal(err)
	}
	s.state = next
	if done {
		s.agent.EndEpisode(s.ep)
		s.ep++
		s.state = s.env.Reset()
	}
}

func (s *stepper) modelSecondsPerStep(d harness.Design, steps int) float64 {
	if steps == 0 {
		return 0
	}
	return harness.Breakdown(d, s.agent.Counters()).Total() / float64(steps)
}

func BenchmarkFigure5TimeToComplete(b *testing.B) {
	for _, hidden := range paperHiddenSizes {
		for _, d := range harness.AllDesigns {
			d, hidden := d, hidden
			b.Run(fmt.Sprintf("%s/%dunits", d, hidden), func(b *testing.B) {
				s := newStepper(b, d, hidden)
				// Warm past initial training so steady-state cost is measured.
				for i := 0; i < hidden+40; i++ {
					s.step(b)
				}
				s.agent.Counters().Reset()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.step(b)
				}
				b.StopTimer()
				b.ReportMetric(1e6*s.modelSecondsPerStep(d, b.N), "model_us/step")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 6: FPGA detail (experiment E5) — the fixed-point core's datapath
// cycles per module invocation at each hidden width.

func BenchmarkFigure6FPGADetail(b *testing.B) {
	for _, hidden := range paperHiddenSizes {
		hidden := hidden
		b.Run(fmt.Sprintf("seq_train/%dunits", hidden), func(b *testing.B) {
			core := fpga.NewCore(5, hidden, 1, fpga.DefaultCycleModel())
			x := make([]fixed.Fixed, 5)
			for i := range x {
				x[i] = fixed.FromFloat(0.1 * float64(i))
			}
			t := []fixed.Fixed{fixed.FromFloat(0.5)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.SeqTrain(x, t)
			}
			b.StopTimer()
			seq := core.KernelCosts()[fpga.KernelSeqTrain]
			b.ReportMetric(float64(seq), "pl_cycles")
			b.ReportMetric(float64(seq)/125.0, "pl_us@125MHz")
		})
		b.Run(fmt.Sprintf("predict/%dunits", hidden), func(b *testing.B) {
			core := fpga.NewCore(5, hidden, 1, fpga.DefaultCycleModel())
			x := make([]fixed.Fixed, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Predict(x)
			}
			b.StopTimer()
			b.ReportMetric(float64(core.KernelCosts()[fpga.KernelPredict]), "pl_cycles")
		})
	}
}

// ---------------------------------------------------------------------------
// Headline (experiment E6): per-step modelled device time ratio DQN vs
// OS-ELM-L2-Lipschitz vs FPGA at 64 units — the §4.4 speedup driver.

func BenchmarkHeadlineSpeedupDrivers(b *testing.B) {
	perStep := map[harness.Design]float64{}
	for _, d := range []harness.Design{harness.DesignOSELML2Lipschitz, harness.DesignDQN, harness.DesignFPGA} {
		s := newStepper(b, d, 64)
		for i := 0; i < 120; i++ {
			s.step(b)
		}
		s.agent.Counters().Reset()
		steps := 400
		for i := 0; i < steps; i++ {
			s.step(b)
		}
		perStep[d] = s.modelSecondsPerStep(d, steps)
	}
	for i := 0; i < b.N; i++ {
		_ = perStep
	}
	b.ReportMetric(perStep[harness.DesignDQN]/perStep[harness.DesignOSELML2Lipschitz], "dqn/oselm_per_step")
	b.ReportMetric(perStep[harness.DesignDQN]/perStep[harness.DesignFPGA], "dqn/fpga_per_step")
}

// ---------------------------------------------------------------------------
// Ablation A1: the L2 parameter δ (§4.1 chose 1 and 0.5).

func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []float64{0.1, 0.5, 1, 2} {
		delta := delta
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 32)
				cfg.Delta = delta
				cfg.Seed = uint64(i) + 4
				agent := qnet.MustNew(cfg)
				task := env.NewShaped(env.NewCartPoleV0(uint64(i)+104), env.RewardSurvival)
				rc := harness.Defaults()
				rc.MaxEpisodes = 400
				res := harness.Run(agent, task, rc)
				best = 0
				for _, p := range res.Curve {
					if p.MovingAvg > best {
						best = p.MovingAvg
					}
				}
			}
			b.ReportMetric(best, "best_100ep_avg")
		})
	}
}

// Ablation A2: the random-update probability ε₂ (§3.2).

func BenchmarkAblationRandomUpdate(b *testing.B) {
	for _, eps2 := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		eps2 := eps2
		b.Run(fmt.Sprintf("eps2=%g", eps2), func(b *testing.B) {
			var best float64
			var updates int64
			for i := 0; i < b.N; i++ {
				cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 32)
				cfg.Epsilon2 = eps2
				cfg.Seed = uint64(i) + 4
				agent := qnet.MustNew(cfg)
				task := env.NewShaped(env.NewCartPoleV0(uint64(i)+104), env.RewardSurvival)
				rc := harness.Defaults()
				rc.MaxEpisodes = 400
				res := harness.Run(agent, task, rc)
				best = 0
				for _, p := range res.Curve {
					if p.MovingAvg > best {
						best = p.MovingAvg
					}
				}
				updates = agent.Counters().Calls(timing.PhaseSeqTrain)
			}
			b.ReportMetric(best, "best_100ep_avg")
			b.ReportMetric(float64(updates), "seq_updates")
		})
	}
}

// Ablation A3: fixed-point fraction width (§4.2 chose Q20) — quantization
// drift of the datapath against the float reference after a burst of
// sequential updates.

func BenchmarkAblationFixedPoint(b *testing.B) {
	for _, frac := range []uint{12, 16, 20, 24} {
		frac := frac
		b.Run(fmt.Sprintf("frac=%d", frac), func(b *testing.B) {
			q := fixed.QFormat{Frac: frac}
			var worst float64
			for i := 0; i < b.N; i++ {
				r := rng.New(uint64(i) + 1)
				base := elm.NewModel(5, 16, 1, activation.ReLU, r,
					elm.Options{InitLow: -1, InitHigh: 1, SpectralNormalizeAlpha: true})
				m := oselm.New(base, 0.5)
				x := mat.Zeros(16, 5)
				y := mat.Zeros(16, 1)
				r.FillUniform(x.RawData(), -1, 1)
				r.FillUniform(y.RawData(), -1, 1)
				if err := m.InitTrain(x, y); err != nil {
					b.Fatal(err)
				}
				quant := m.Clone()
				worst = 0
				for step := 0; step < 500; step++ {
					xi := make([]float64, 5)
					r.FillUniform(xi, -1, 1)
					ti := []float64{r.Uniform(-1, 1)}
					if err := m.SeqTrainOne(xi, ti); err != nil {
						b.Fatal(err)
					}
					// Quantize the input/target path like the datapath does.
					qx := make([]float64, 5)
					for j, v := range xi {
						qx[j] = q.Quantize(v)
					}
					if err := quant.SeqTrainOne(qx, []float64{q.Quantize(ti[0])}); err != nil {
						b.Fatal(err)
					}
					// Quantize the updated weights to the grid.
					for j, v := range quant.Beta.RawData() {
						quant.Beta.RawData()[j] = q.Quantize(v)
					}
				}
				probe := []float64{0.2, -0.3, 0.5, -0.1, 1}
				d := math.Abs(m.PredictOne(probe)[0] - quant.PredictOne(probe)[0])
				if d > worst {
					worst = d
				}
			}
			b.ReportMetric(worst, "max_drift")
		})
	}
}

// Extension X2: other reinforcement-learning tasks (paper §5 future work).

func BenchmarkExtraEnvs(b *testing.B) {
	envs := map[string]func(seed uint64) env.Env{
		"MountainCar": func(s uint64) env.Env {
			return env.NewShaped(env.NewMountainCar(s), env.RewardPerStepClipped)
		},
		"Acrobot": func(s uint64) env.Env {
			return env.NewShaped(env.NewAcrobot(s), env.RewardPerStepClipped)
		},
		"GridWorld": func(s uint64) env.Env { return env.NewGridWorld(5, s) },
		"Lander": func(s uint64) env.Env {
			return env.NewShaped(env.NewLander(s), env.RewardPerStepClipped)
		},
		"CliffWalking": func(s uint64) env.Env {
			return env.NewShaped(env.NewCliffWalk(), env.RewardPerStepClipped)
		},
		"Pendulum": func(s uint64) env.Env {
			return env.NewShaped(env.NewPendulum(s), env.RewardPerStepClipped)
		},
	}
	for name, mk := range envs {
		name, mk := name, mk
		b.Run(name, func(b *testing.B) {
			e := mk(11)
			cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz,
				e.ObservationSize(), e.ActionCount(), 32)
			cfg.Seed = 11
			agent := qnet.MustNew(cfg)
			state := e.Reset()
			ep := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				act := agent.SelectAction(state)
				next, r, done := e.Step(act)
				if err := agent.Observe(replay.Transition{
					State: state, Action: act, Reward: r, NextState: next, Done: done,
				}); err != nil {
					b.Fatal(err)
				}
				state = next
				if done {
					agent.EndEpisode(ep)
					ep++
					state = e.Reset()
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Kernel benchmarks: the primitive costs everything above is built from.

func BenchmarkOSELMSeqTrainKernel(b *testing.B) {
	for _, hidden := range paperHiddenSizes {
		hidden := hidden
		b.Run(fmt.Sprintf("%dunits", hidden), func(b *testing.B) {
			r := rng.New(1)
			base := elm.NewModel(5, hidden, 1, activation.ReLU, r, elm.DefaultOptions())
			m := oselm.New(base, 0.5)
			x := mat.Zeros(hidden, 5)
			y := mat.Zeros(hidden, 1)
			r.FillUniform(x.RawData(), -1, 1)
			r.FillUniform(y.RawData(), -1, 1)
			if err := m.InitTrain(x, y); err != nil {
				b.Fatal(err)
			}
			xi := []float64{0.1, -0.2, 0.3, -0.4, 1}
			ti := []float64{0.5}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.SeqTrainOne(xi, ti); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOSELMPredictKernel(b *testing.B) {
	for _, hidden := range paperHiddenSizes {
		hidden := hidden
		b.Run(fmt.Sprintf("%dunits", hidden), func(b *testing.B) {
			r := rng.New(1)
			base := elm.NewModel(5, hidden, 1, activation.ReLU, r, elm.DefaultOptions())
			r.FillUniform(base.Beta.RawData(), -1, 1)
			xi := []float64{0.1, -0.2, 0.3, -0.4, 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = base.PredictOne(xi)
			}
		})
	}
}

// BenchmarkEvaluator times the serving-side Q evaluation of a CartPole
// policy (simplified output model, scalar action): one state through
// QValues, and a batch of eight through QValuesBatch (ns/op per batch).
func BenchmarkEvaluator(b *testing.B) {
	for _, hidden := range []int{64, 1024} {
		r := rng.New(1)
		a := qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, hidden))
		r.FillUniform(a.Theta1().Beta.RawData(), -1, 1)
		states := make([][]float64, 8)
		for i := range states {
			states[i] = []float64{r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-0.2, 0.2), r.Uniform(-1, 1)}
		}
		b.Run(fmt.Sprintf("qvalues/%d", hidden), func(b *testing.B) {
			ev := a.NewEvaluator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.QValues(states[i%len(states)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch8/%d", hidden), func(b *testing.B) {
			ev := a.NewEvaluator()
			if _, err := ev.QValuesBatch(states); err != nil { // sizes the batch scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.QValuesBatch(states); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkELMInitTrainKernel(b *testing.B) {
	for _, hidden := range []int{32, 64, 128} {
		hidden := hidden
		b.Run(fmt.Sprintf("%dunits", hidden), func(b *testing.B) {
			r := rng.New(1)
			x := mat.Zeros(hidden, 5)
			y := mat.Zeros(hidden, 1)
			r.FillUniform(x.RawData(), -1, 1)
			r.FillUniform(y.RawData(), -1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := elm.NewModel(5, hidden, 1, activation.ReLU, rng.New(1), elm.DefaultOptions())
				m := oselm.New(base, 0.5)
				if err := m.InitTrain(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFPGACoreKernels(b *testing.B) {
	for _, hidden := range paperHiddenSizes {
		hidden := hidden
		b.Run(fmt.Sprintf("seq_train/%dunits", hidden), func(b *testing.B) {
			core := fpga.NewCore(5, hidden, 1, fpga.DefaultCycleModel())
			x := make([]fixed.Fixed, 5)
			t := []fixed.Fixed{fixed.FromFloat(0.3)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.SeqTrain(x, t)
			}
		})
		b.Run(fmt.Sprintf("predict/%dunits", hidden), func(b *testing.B) {
			core := fpga.NewCore(5, hidden, 1, fpga.DefaultCycleModel())
			x := make([]fixed.Fixed, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Predict(x)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Device profiler overhead: the off row must track the plain seq_train
// kernel (the nil-check disabled path is the zero-cost guarantee); the on
// row bounds the full (phase × kernel × unit) attribution cost. Same
// kernel and hidden width, so the pair reads as a direct A/B in the
// BENCH_<n>.json trajectory.

func BenchmarkFPGAProfiler(b *testing.B) {
	for _, profile := range []bool{false, true} {
		name := "off"
		if profile {
			name = "on"
		}
		b.Run(fmt.Sprintf("%s/32units", name), func(b *testing.B) {
			core := fpga.NewCore(5, 32, 1, fpga.DefaultCycleModel())
			if profile {
				core.EnableProfiling()
			}
			x := make([]fixed.Fixed, 5)
			t := []fixed.Fixed{fixed.FromFloat(0.3)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.SeqTrain(x, t)
			}
		})
	}
}

// BenchmarkFleetSimulate measures the discrete-event fleet simulator on
// the population-training workload (8 members x 50 transitions at 64
// hidden units) and reports the modelled speedup per core count — the
// fleet-sim throughput row in the BENCH_<n>.json trajectory.
func BenchmarkFleetSimulate(b *testing.B) {
	costs := fpga.AnalyticKernelCosts(5, 64, 1, fpga.DefaultCycleModel())
	w := fleet.PopulationTraining(8, 50, costs)
	for _, cores := range []int{1, 4, 8} {
		cores := cores
		b.Run(fmt.Sprintf("%dcores", cores), func(b *testing.B) {
			var res *fleet.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res = fleet.Simulate(w, fleet.Config{Cores: cores})
			}
			b.ReportMetric(res.Speedup(), "modelled_speedup")
			b.ReportMetric(float64(len(res.Log))/b.Elapsed().Seconds()*float64(b.N), "events/s")
		})
	}
}

func BenchmarkDQNTrainStep(b *testing.B) {
	for _, hidden := range paperHiddenSizes {
		hidden := hidden
		b.Run(fmt.Sprintf("%dunits", hidden), func(b *testing.B) {
			cfg := dqn.DefaultConfig(4, 2, hidden)
			cfg.Seed = 1
			agent := dqn.MustNew(cfg)
			s := []float64{0.1, 0.2, 0.3, 0.4}
			// Prime the replay buffer.
			for i := 0; i < 31; i++ {
				if err := agent.Observe(replay.Transition{State: s, NextState: s}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := agent.Observe(replay.Transition{State: s, Action: i % 2, Reward: 1, NextState: s, Done: i%7 == 0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGEMM(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		n := n
		b.Run(fmt.Sprintf("serial/%dx%d", n, n), func(b *testing.B) {
			r := rng.New(1)
			x := mat.Zeros(n, n)
			y := mat.Zeros(n, n)
			r.FillUniform(x.RawData(), -1, 1)
			r.FillUniform(y.RawData(), -1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = mat.MulSerial(x, y)
			}
		})
	}
	b.Run("parallel/256x256", func(b *testing.B) {
		r := rng.New(1)
		x := mat.Zeros(256, 256)
		y := mat.Zeros(256, 256)
		r.FillUniform(x.RawData(), -1, 1)
		r.FillUniform(y.RawData(), -1, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = mat.MulParallel(x, y)
		}
	})
}

func BenchmarkCartPoleStep(b *testing.B) {
	e := env.NewCartPoleV0(1)
	e.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, done := e.Step(i % 2)
		if done {
			e.Reset()
		}
	}
}

// Facade sanity: the public API constructs and steps.
func BenchmarkFacadeAgentStep(b *testing.B) {
	agent, err := oselmrl.NewAgent(oselmrl.DesignOSELML2Lipschitz, 4, 2, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	task := oselmrl.NewCartPole(101)
	state := task.Reset()
	ep := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		act := agent.SelectAction(state)
		next, r, done := task.Step(act)
		if err := agent.Observe(replay.Transition{State: state, Action: act, Reward: r, NextState: next, Done: done}); err != nil {
			b.Fatal(err)
		}
		state = next
		if done {
			agent.EndEpisode(ep)
			ep++
			state = task.Reset()
		}
	}
}

// ---------------------------------------------------------------------------
// Extension ablations beyond the paper (DESIGN.md X3/X4 plus the
// Lipschitz-robustness probe).

// BenchmarkRobustnessNoise sweeps observation-noise levels against the
// plain and fully-regularized OS-ELM designs. The paper's §3.3 Lipschitz
// argument predicts the regularized design degrades more gracefully.
func BenchmarkRobustnessNoise(b *testing.B) {
	for _, noise := range []float64{0, 0.05, 0.1} {
		for _, v := range []qnet.Variant{qnet.VariantOSELM, qnet.VariantOSELML2Lipschitz} {
			noise, v := noise, v
			b.Run(fmt.Sprintf("%s/noise=%g", v, noise), func(b *testing.B) {
				var best float64
				for i := 0; i < b.N; i++ {
					cfg := qnet.DefaultConfig(v, 4, 2, 32)
					cfg.Seed = uint64(i) + 4
					agent := qnet.MustNew(cfg)
					inner := env.NewShaped(env.NewCartPoleV0(uint64(i)+104), env.RewardSurvival)
					p := env.NewPerturbed(inner, uint64(i)+204)
					p.NoiseStd = noise
					rc := harness.Defaults()
					rc.MaxEpisodes = 400
					res := harness.Run(agent, p, rc)
					best = 0
					for _, pt := range res.Curve {
						if pt.MovingAvg > best {
							best = pt.MovingAvg
						}
					}
				}
				b.ReportMetric(best, "best_100ep_avg")
			})
		}
	}
}

// BenchmarkAblationDoubleQ compares standard and Double-Q targets.
func BenchmarkAblationDoubleQ(b *testing.B) {
	for _, dq := range []bool{false, true} {
		dq := dq
		name := "standard"
		if dq {
			name = "double-q"
		}
		b.Run(name, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 32)
				cfg.Seed = uint64(i) + 4
				cfg.DoubleQ = dq
				agent := qnet.MustNew(cfg)
				task := env.NewShaped(env.NewCartPoleV0(uint64(i)+104), env.RewardSurvival)
				rc := harness.Defaults()
				rc.MaxEpisodes = 400
				res := harness.Run(agent, task, rc)
				best = 0
				for _, pt := range res.Curve {
					if pt.MovingAvg > best {
						best = pt.MovingAvg
					}
				}
			}
			b.ReportMetric(best, "best_100ep_avg")
		})
	}
}

// BenchmarkForgettingKernel measures the forgetting-factor rank-1 update
// against the plain one (same asymptotic cost; the factor adds one scale).
// Inputs vary per iteration: forgetting RLS requires persistent excitation
// (see oselm.SeqTrainOneForgetting), so hammering one fixed input for
// b.N = 100k+ iterations would wind P up until the update correctly
// rejects it. Each sub-benchmark gets its own fresh model.
func BenchmarkForgettingKernel(b *testing.B) {
	freshModel := func(b *testing.B) *oselm.Model {
		r := rng.New(1)
		base := elm.NewModel(5, 64, 1, activation.ReLU, r, elm.DefaultOptions())
		m := oselm.New(base, 0.5)
		x := mat.Zeros(64, 5)
		y := mat.Zeros(64, 1)
		r.FillUniform(x.RawData(), -1, 1)
		r.FillUniform(y.RawData(), -1, 1)
		if err := m.InitTrain(x, y); err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("plain", func(b *testing.B) {
		m := freshModel(b)
		r := rng.New(2)
		xi := make([]float64, 5)
		ti := []float64{0.5}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.FillUniform(xi, -1, 1)
			if err := m.SeqTrainOne(xi, ti); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forgetting", func(b *testing.B) {
		// λ < 1 winds P up along the unexcited hidden directions (the
		// 5-D input manifold cannot excite all 64), so mirror the reset
		// rule: refresh the model every few thousand updates, off-timer.
		m := freshModel(b)
		r := rng.New(3)
		xi := make([]float64, 5)
		ti := []float64{0.5}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%4000 == 3999 {
				b.StopTimer()
				m = freshModel(b)
				b.StartTimer()
			}
			r.FillUniform(xi, -1, 1)
			if err := m.SeqTrainOneForgetting(xi, ti, 0.995); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gain_trace", func(b *testing.B) {
		m := freshModel(b)
		var g float64
		for i := 0; i < b.N; i++ {
			g = m.GainTrace()
		}
		b.ReportMetric(g, "mean_eigenvalue")
	})
}

// BenchmarkONLADUpdate measures the reference-[3] substrate's on-device
// adaptation step (an autoencoder rank-1 update plus scoring).
func BenchmarkONLADUpdate(b *testing.B) {
	cfg := onlad.DefaultConfig(8, 32)
	det := onlad.MustNew(cfg)
	r := rng.New(1)
	calib := mat.Zeros(64, 8)
	r.FillUniform(calib.RawData(), -1, 1)
	if err := det.Fit(calib); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 8)
	r.FillUniform(x, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.UpdateIfNormal(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchSizeAblation quantifies the paper's §2.2 design choice of
// fixing the sequential batch size at k = 1: the rank-k update needs a
// k×k matrix inverse (the SVD/QRD block the FPGA design eliminates),
// while k rank-1 updates need only scalar reciprocals. Compared at equal
// throughput (samples per iteration).
func BenchmarkBatchSizeAblation(b *testing.B) {
	mk := func(b *testing.B) *oselm.Model {
		r := rng.New(1)
		base := elm.NewModel(5, 64, 1, activation.ReLU, r, elm.DefaultOptions())
		m := oselm.New(base, 0.5)
		x := mat.Zeros(64, 5)
		y := mat.Zeros(64, 1)
		r.FillUniform(x.RawData(), -1, 1)
		r.FillUniform(y.RawData(), -1, 1)
		if err := m.InitTrain(x, y); err != nil {
			b.Fatal(err)
		}
		return m
	}
	for _, k := range []int{1, 4, 16} {
		k := k
		b.Run(fmt.Sprintf("rank1_x%d", k), func(b *testing.B) {
			m := mk(b)
			r := rng.New(2)
			xi := make([]float64, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					r.FillUniform(xi, -1, 1)
					if err := m.SeqTrainOne(xi, []float64{0.5}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("rankk_k%d", k), func(b *testing.B) {
			m := mk(b)
			r := rng.New(2)
			x := mat.Zeros(k, 5)
			y := mat.Zeros(k, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.FillUniform(x.RawData(), -1, 1)
				r.FillUniform(y.RawData(), -1, 1)
				if err := m.SeqTrainBatch(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
