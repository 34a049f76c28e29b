package harness

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oselmrl/internal/env"
	"oselmrl/internal/fixed"
	"oselmrl/internal/fpga"
	"oselmrl/internal/qnet"
	"oselmrl/internal/timing"
)

var updateTrajectories = flag.Bool("update", false, "rewrite testdata/trajectories.golden")

// trajectoryCase is one design pinned by TestGoldenTrajectories.
type trajectoryCase struct {
	name  string
	build func(seed uint64) (Agent, error)
}

func trajectoryCases() []trajectoryCase {
	float := func(v qnet.Variant, edit func(*qnet.Config)) func(uint64) (Agent, error) {
		return func(seed uint64) (Agent, error) {
			cfg := qnet.DefaultConfig(v, 4, 2, 16)
			cfg.Seed = seed
			if edit != nil {
				edit(&cfg)
			}
			return qnet.New(cfg)
		}
	}
	fixedPoint := func(q fixed.QFormat) func(uint64) (Agent, error) {
		return func(seed uint64) (Agent, error) {
			return NewAgentQ(DesignFPGA, 4, 2, 16, seed, q)
		}
	}
	return []trajectoryCase{
		{"ELM", float(qnet.VariantELM, nil)},
		{"OS-ELM", float(qnet.VariantOSELM, nil)},
		{"OS-ELM-L2", float(qnet.VariantOSELML2, nil)},
		{"OS-ELM-Lipschitz", float(qnet.VariantOSELMLipschitz, nil)},
		{"OS-ELM-L2-Lipschitz", float(qnet.VariantOSELML2Lipschitz, nil)},
		{"DoubleQ", float(qnet.VariantOSELML2Lipschitz, func(c *qnet.Config) { c.DoubleQ = true })},
		{"OneHot", float(qnet.VariantOSELML2Lipschitz, func(c *qnet.Config) { c.OneHotActions = true })},
		{"StandardOutput", float(qnet.VariantOSELML2Lipschitz, func(c *qnet.Config) { c.StandardOutputModel = true })},
		{"FPGA-Q20", fixedPoint(fixed.Q20)},
		{"FPGA-Q16", fixedPoint(fixed.Q16)},
	}
}

// trajectoryProbes are the states whose greedy Q values are pinned after
// training.
var trajectoryProbes = [][]float64{
	{0, 0, 0, 0},
	{0.05, -0.2, 0.03, 0.4},
	{-1.2, 0.8, -0.15, -1.1},
}

// greedyQ reads Q(s, ·) from the trained agent without charging any
// counter: the float agents through an Evaluator over θ1, the FPGA agent
// through its core.
func greedyQ(t *testing.T, a Agent, state []float64) []float64 {
	switch ag := a.(type) {
	case *qnet.Agent:
		q, err := ag.NewEvaluator().QValues(state)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), q...)
	case *fpga.Agent:
		out := make([]float64, 2)
		for act := range out {
			in := append(append([]float64(nil), state...), float64(act))
			out[act] = ag.Core().PredictFloat(in)[0]
		}
		return out
	}
	t.Fatalf("no Q probe for %T", a)
	return nil
}

// renderTrajectory runs one short CartPole trial (with resets, so the
// re-draw path is exercised) and renders everything that depends on the
// agent's arithmetic and RNG order: every episode's length, each phase's
// counter totals as float bits, and greedy Q values on fixed probes.
func renderTrajectory(t *testing.T, c trajectoryCase, seed uint64) string {
	a, err := c.build(seed)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	cfg := Config{MaxEpisodes: 90, ResetAfter: 40, SolveWindow: 100,
		SolveThreshold: 195, RecordCurve: true, ScoreIsSteps: true}
	res := Run(a, env.NewShaped(env.NewCartPoleV0(seed+100), env.RewardSurvival), cfg)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s seed=%d episodes=%d resets=%d err=%v\n",
		c.name, seed, res.Episodes, res.Resets, res.Err)
	b.WriteString("steps:")
	for _, st := range res.Curve {
		fmt.Fprintf(&b, " %d", st.Steps)
	}
	b.WriteString("\n")
	for _, p := range timing.AllPhases {
		fmt.Fprintf(&b, "counter %s calls=%d work=%016x\n",
			p, res.Counters.Calls(p), math.Float64bits(res.Counters.Work(p)))
	}
	for i, s := range trajectoryProbes {
		fmt.Fprintf(&b, "probe %d q:", i)
		for _, q := range greedyQ(t, a, s) {
			fmt.Fprintf(&b, " %016x", math.Float64bits(q))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestGoldenTrajectories pins whole training trajectories of every
// Algorithm 1 design — the five float variants, the float extensions and
// the FPGA datapath at two formats — at two seeds. Any change to the RNG
// draw order, a target formula, a counter charge or the arithmetic shows
// up as a diff. Regenerate with `go test ./internal/harness -run
// GoldenTrajectories -update` only when a change is meant to alter them.
func TestGoldenTrajectories(t *testing.T) {
	var b strings.Builder
	for _, c := range trajectoryCases() {
		for _, seed := range []uint64{1, 7} {
			b.WriteString(renderTrajectory(t, c, seed))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "trajectories.golden")
	if *updateTrajectories {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trajectory diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trajectory length changed: got %d lines, want %d", len(gl), len(wl))
	}
}
