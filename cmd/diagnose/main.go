// Command diagnose trains an ELM/OS-ELM design while sampling the
// stability diagnostics of §3.3/§4.3 — σmax(β), ‖β‖_F, the Lipschitz
// bound, P's effective learning rate and the worst probe-state |Q| — and
// prints them alongside the learning curve. It makes the paper's
// qualitative story measurable: watch plain OS-ELM's σmax(β) and Q
// outliers blow up while the L2-Lipschitz variant stays bounded.
//
// Usage:
//
//	go run ./cmd/diagnose -design OS-ELM -episodes 600
//	go run ./cmd/diagnose -design OS-ELM-L2-Lipschitz -episodes 600
//	go run ./cmd/diagnose -design OS-ELM -watchdog
//	go run ./cmd/diagnose -design FPGA -qformat Q16
//
// With -watchdog the divergence watchdog evaluates the same run and the
// tripped rules are printed at the end — the online counterpart to the
// sampled table. With -design FPGA the table switches to the fixed-point
// health diagnostics of the quantized datapath (saturation rate,
// quantization error per op, denominator-guard trips) and -qformat
// selects the Qm.f format under test.
package main

import (
	"flag"
	"fmt"
	"os"

	"oselmrl/internal/cli"
	"oselmrl/internal/env"
	"oselmrl/internal/fixed"
	"oselmrl/internal/fpga"
	"oselmrl/internal/harness"
	"oselmrl/internal/obs"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
)

func main() {
	designName := flag.String("design", "OS-ELM", "ELM/OS-ELM design (or FPGA) to diagnose")
	hidden := flag.Int("hidden", 32, "hidden width")
	episodes := flag.Int("episodes", 600, "episodes to run")
	every := flag.Int("every", 50, "episodes between diagnostic samples")
	seed := flag.Uint64("seed", 1, "seed")
	watchdog := flag.Bool("watchdog", false, "run the divergence watchdog alongside the sampled diagnostics")
	qformatName := flag.String("qformat", "Q20", "fixed-point format of the FPGA datapath (FPGA design only)")
	flag.Parse()

	d, err := harness.ParseDesign(*designName)
	if err != nil {
		fail(err)
	}
	qformat, err := cli.ParseQFormat(*qformatName)
	if err != nil {
		fail(err)
	}
	a, err := harness.NewAgentQ(d, 4, 2, *hidden, *seed, qformat)
	if err != nil {
		fail(err)
	}
	task := env.NewShaped(env.NewCartPoleV0(*seed+100), env.RewardSurvival)
	if fa, ok := a.(*fpga.Agent); ok {
		diagnoseFPGA(fa, task, *episodes, *every, *watchdog)
		return
	}
	agent, ok := a.(*qnet.Agent)
	if !ok {
		fail(fmt.Errorf("diagnose supports the ELM/OS-ELM designs and FPGA, not %s", d))
	}

	var wd *obs.Watchdog
	if *watchdog {
		wd = obs.NewWatchdog(obs.DefaultWatchdogConfig())
		emitter := obs.NewEmitter(nil)
		emitter.SetWatchdog(wd)
		agent.SetObserver(emitter)
	}

	// Probe states: a fixed random sample of plausible CartPole states.
	probeRNG := rng.New(42)
	probes := make([][]float64, 32)
	for i := range probes {
		probes[i] = []float64{
			probeRNG.Uniform(-2.4, 2.4),
			probeRNG.Uniform(-3, 3),
			probeRNG.Uniform(-0.2, 0.2),
			probeRNG.Uniform(-3, 3),
		}
	}

	fmt.Printf("Stability diagnostics: %s, %d hidden units (paper §3.3/§4.3)\n\n", d, *hidden)
	fmt.Printf("%-8s %-8s %-10s %-10s %-10s %-12s %-10s\n",
		"episode", "avg100", "sigma(B)", "||B||_F", "gainTr(P)", "max|P|", "max|Q|")

	window := make([]float64, 0, *episodes)
	for ep := 1; ep <= *episodes; ep++ {
		s := task.Reset()
		steps := 0
		for {
			act := agent.SelectAction(s)
			ns, r, done := task.Step(act)
			if err := agent.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
				fmt.Println("update error (continuing):", err)
			}
			s = ns
			steps++
			if done {
				break
			}
		}
		agent.EndEpisode(ep)
		window = append(window, float64(steps))
		if ep%*every == 0 {
			n := 100
			if len(window) < n {
				n = len(window)
			}
			sum := 0.0
			for _, v := range window[len(window)-n:] {
				sum += v
			}
			diag := agent.Snapshot(ep, probes)
			fmt.Printf("%-8d %-8.1f %-10.3f %-10.3f %-10.4f %-12.3f %-10.3f\n",
				ep, sum/float64(n), diag.BetaSigmaMax, diag.BetaFrobenius,
				diag.GainTrace, diag.PMaxAbs, diag.QProbeMax)
		}
	}
	final := agent.Snapshot(*episodes, probes)
	fmt.Printf("\nLipschitz bound σmax(α)·Lip(G)·σmax(β) = %.3f (σmax(α) = %.3f)\n",
		final.LipschitzBound, final.AlphaSigmaMax)
	fmt.Println("Relation 13 check: σmax(β) <= ||β||_F:",
		final.BetaSigmaMax <= final.BetaFrobenius+1e-9)

	if wd != nil {
		if wd.Diverged() {
			fmt.Printf("\nWatchdog: DIVERGED (%d alerts)\n", wd.AlertCount())
			for _, al := range wd.Alerts() {
				fmt.Printf("  %s on %s: value %g vs threshold %g (%d violations)\n",
					al.Rule, al.Metric, al.Value, al.Threshold, al.Count)
			}
		} else {
			fmt.Println("\nWatchdog: healthy (zero alerts)")
		}
	}
}

// diagnoseFPGA runs the fixed-point health table for the quantized
// datapath: learning progress next to the numeric-health accounting the
// Qm.f format determines (saturation rate and quantization error of the
// seq_train module, plus Eq. 5 denominator-guard trips). The observer is
// a disabled emitter — it costs nothing but switches the core's
// accounting on. One core serves the whole run, so the columns are
// cumulative across the 300-episode reset rule.
func diagnoseFPGA(agent *fpga.Agent, task env.Env, episodes, every int, watchdog bool) {
	emitter := obs.NewEmitter(nil)
	var wd *obs.Watchdog
	if watchdog {
		wd = obs.NewWatchdog(obs.DefaultWatchdogConfig())
		emitter.SetWatchdog(wd)
	}
	agent.SetObserver(emitter)

	q := agent.Format()
	fmt.Printf("Fixed-point health diagnostics: FPGA design, %s datapath, %d hidden units\n\n",
		q, agent.Core().HiddenSize())
	fmt.Printf("%-8s %-8s %-10s %-10s %-10s %-10s %-12s %-6s\n",
		"episode", "avg100", "||B||_F", "gainTr(P)", "max|P|", "sat(seq)", "qerr/op", "guard")

	window := make([]float64, 0, episodes)
	for ep := 1; ep <= episodes; ep++ {
		s := task.Reset()
		steps := 0
		for {
			act := agent.SelectAction(s)
			ns, r, done := task.Step(act)
			if err := agent.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
				fmt.Println("update error (continuing):", err)
			}
			s = ns
			steps++
			if done {
				break
			}
		}
		agent.EndEpisode(ep)
		window = append(window, float64(steps))
		if ep%every == 0 {
			n := 100
			if len(window) < n {
				n = len(window)
			}
			sum := 0.0
			for _, v := range window[len(window)-n:] {
				sum += v
			}
			core := agent.Core()
			sa := core.SeqTrainAcct()
			qerr := 0.0
			if sa != nil && sa.Ops > 0 {
				qerr = sa.QuantErrAbs / float64(sa.Ops)
			}
			hid := core.HiddenSize()
			fmt.Printf("%-8d %-8.1f %-10.3f %-10.4f %-10.3f %-10.2e %-12.3e %-6d\n",
				ep, sum/float64(n), core.Beta.FrobeniusNorm(),
				core.P.Trace()/float64(hid), maxAbs(core.P),
				sa.SaturationRate(), qerr, core.DenomGuardTrips())
		}
	}

	fmt.Printf("\nFormat: %s (resolution %.3g, max %.6g; storage and cycles are format-invariant)\n",
		q, q.Resolution(), q.MaxValue())
	if wd != nil {
		if wd.Diverged() {
			fmt.Printf("\nWatchdog: DIVERGED (%d alerts)\n", wd.AlertCount())
			for _, al := range wd.Alerts() {
				fmt.Printf("  %s on %s: value %g vs threshold %g (%d violations)\n",
					al.Rule, al.Metric, al.Value, al.Threshold, al.Count)
			}
		} else {
			fmt.Println("\nWatchdog: healthy (zero alerts)")
		}
	}
}

// maxAbs returns the largest |element| of m in real value units.
func maxAbs(m *fixed.Matrix) float64 {
	q := m.Format()
	var worst float64
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			v := q.Float(m.At(i, j))
			if v < 0 {
				v = -v
			}
			if v > worst {
				worst = v
			}
		}
	}
	return worst
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "diagnose:", err)
	os.Exit(1)
}
