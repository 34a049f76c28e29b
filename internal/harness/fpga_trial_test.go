package harness

import (
	"bytes"
	"testing"

	"oselmrl/internal/env"
	"oselmrl/internal/fixed"
	"oselmrl/internal/fpga"
	"oselmrl/internal/obs"
	"oselmrl/internal/timing"
)

// TestFPGATrialNumbersSpanResets: the FPGA core's cycles, accounting and
// guard trips cover the whole trial, resets included, like the timing
// counters do — not only the attempt since the last reset. The run ends
// on a reset, the case where per-attempt numbers read zero.
func TestFPGATrialNumbersSpanResets(t *testing.T) {
	agent, err := NewAgentQ(DesignFPGA, 4, 2, 16, 7, fixed.QFormat{})
	if err != nil {
		t.Fatal(err)
	}
	fa := agent.(*fpga.Agent)
	fa.SetObserver(obs.NewEmitter(nil)) // switches the core's accounting on
	rc := Config{MaxEpisodes: 60, ResetAfter: 20, SolveWindow: 100,
		SolveThreshold: 195, ScoreIsSteps: true}
	res := Run(agent, env.NewShaped(env.NewCartPoleV0(107), env.RewardSurvival), rc)
	if res.Resets != 3 {
		t.Fatalf("resets = %d, want 3 (the last on the final episode)", res.Resets)
	}
	core := fa.Core()
	pl := res.Counters.Work(timing.PhaseSeqTrain) + res.Counters.Work(timing.PhasePredictSeq)
	if float64(core.Cycles()) != pl {
		t.Errorf("core cycles %d, PL counter work %v: the core must count the whole trial",
			core.Cycles(), pl)
	}
	if core.SeqTrainAcct().Ops == 0 || core.PredictAcct().Ops == 0 {
		t.Errorf("accounting ops predict=%d seq_train=%d after a final reset, want the trial's",
			core.PredictAcct().Ops, core.SeqTrainAcct().Ops)
	}
}

// TestFPGASigmaRunawayWatchdog: the FPGA design publishes σmax(β) at each
// θ2 sync, so the beta_sigma_runaway rule can fire on it, and its sync
// events and clip-rate gauge carry the same learning health the float
// designs report.
func TestFPGASigmaRunawayWatchdog(t *testing.T) {
	var buf bytes.Buffer
	emitter := obs.NewEmitter(obs.NewJSONLSink(&buf))
	emitter.SetWatchdog(obs.NewWatchdog(obs.WatchdogConfig{MaxBetaSigmaMax: 1e-6}))
	agent, err := NewAgent(DesignFPGA, 4, 2, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	rc := Config{MaxEpisodes: 30, SolveWindow: 100, SolveThreshold: 195,
		ScoreIsSteps: true, Obs: emitter}
	res := Run(agent, env.NewShaped(env.NewCartPoleV0(107), env.RewardSurvival), rc)
	fired := false
	for _, al := range res.Alerts {
		fired = fired || al.Rule == obs.RuleSigmaRunaway
	}
	if !fired {
		t.Errorf("beta_sigma_runaway did not fire; alerts %+v", res.Alerts)
	}
	if _, ok := res.Metrics.Gauges[obs.GaugeLearnClipRate]; !ok {
		t.Errorf("no %s gauge", obs.GaugeLearnClipRate)
	}
	if err := emitter.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	for _, ev := range events {
		if ev.Type != obs.EventTheta2Sync {
			continue
		}
		syncs++
		if sigma, ok := ev.Data["beta_sigma_max"]; !ok || sigma != ev.Data["beta_norm"] {
			t.Fatalf("theta2_sync data %v: want beta_sigma_max equal to the one-column beta_norm", ev.Data)
		}
	}
	if syncs == 0 {
		t.Fatal("no theta2_sync events")
	}
}

// TestFPGAGreedyEvaluationIsUncharged: greedy evaluation reads the core
// off the cost model, so after EvaluateGreedy the core's cycles still
// equal the programmable logic's charged work.
func TestFPGAGreedyEvaluationIsUncharged(t *testing.T) {
	agent, err := NewAgentQ(DesignFPGA, 4, 2, 16, 7, fixed.QFormat{})
	if err != nil {
		t.Fatal(err)
	}
	rc := Config{MaxEpisodes: 30, SolveWindow: 100, SolveThreshold: 195, ScoreIsSteps: true}
	res := Run(agent, env.NewShaped(env.NewCartPoleV0(7), env.RewardSurvival), rc)
	fa := agent.(*fpga.Agent)
	pl := res.Counters.Work(timing.PhaseSeqTrain) + res.Counters.Work(timing.PhasePredictSeq)
	if pl == 0 {
		t.Fatal("no programmable-logic work charged: the run never reached the sequential regime")
	}
	EvaluateGreedy(fa, env.NewCartPoleV0(8), 3, true)
	if cycles := fa.Core().Cycles(); float64(cycles) != pl {
		t.Errorf("core cycles %d after greedy evaluation, PL counter work %v", cycles, pl)
	}
}
