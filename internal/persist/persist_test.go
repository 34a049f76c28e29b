package persist

import (
	"bytes"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oselmrl/internal/activation"
	"oselmrl/internal/elm"
	"oselmrl/internal/env"
	"oselmrl/internal/mat"
	"oselmrl/internal/oselm"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
)

func trainedModel(t *testing.T) *oselm.Model {
	t.Helper()
	r := rng.New(1)
	base := elm.NewModel(3, 12, 2, activation.Sigmoid, r, elm.DefaultOptions())
	m := oselm.New(base, 0.4)
	x := mat.Zeros(15, 3)
	y := mat.Zeros(15, 2)
	r.FillUniform(x.RawData(), -1, 1)
	r.FillUniform(y.RawData(), -1, 1)
	if err := m.InitTrain(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		xi := make([]float64, 3)
		r.FillUniform(xi, -1, 1)
		if err := m.SeqTrainOne(xi, []float64{r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestOSELMRoundTrip(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := SaveOSELM(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOSELM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Initialized() {
		t.Fatal("restored model must be initialized")
	}
	if got.Delta != m.Delta || got.Updates() != m.Updates() {
		t.Error("hyperparameters not restored")
	}
	// Predictions identical.
	probe := []float64{0.3, -0.2, 0.9}
	a, b := m.PredictOne(probe), got.PredictOne(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	// Restored model can continue sequential training.
	if err := got.SeqTrainOne(probe, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestOSELMUntrainedRoundTrip(t *testing.T) {
	base := elm.NewModel(2, 6, 1, activation.ReLU, rng.New(2), elm.DefaultOptions())
	m := oselm.New(base, 0.1)
	var buf bytes.Buffer
	if err := SaveOSELM(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOSELM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Initialized() {
		t.Error("untrained model must restore as untrained")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadOSELM(strings.NewReader("{not json")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadOSELM(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version must fail")
	}
	// Inconsistent dimensions.
	bad := `{"version":1,"input_size":2,"hidden_size":3,"output_size":1,
		"activation":"relu","alpha":{"rows":2,"cols":2,"data":[1,2,3,4]},
		"bias":[0,0,0],"beta":{"rows":3,"cols":1,"data":[1,2,3]}}`
	if _, err := LoadOSELM(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent dims must fail")
	}
	// Unknown activation.
	bad2 := strings.Replace(bad, `"relu"`, `"mystery"`, 1)
	if _, err := LoadOSELM(strings.NewReader(bad2)); err == nil {
		t.Error("unknown activation must fail")
	}
}

// TestAgentRoundTrip: a trained Q-network agent survives save/load with
// identical greedy behaviour, and can keep learning.
func TestAgentRoundTrip(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 16)
	cfg.Seed = 5
	agent := qnet.MustNew(cfg)

	// Train for a while on CartPole.
	e := env.NewShaped(env.NewCartPoleV0(105), env.RewardSurvival)
	s := e.Reset()
	for i := 0; i < 2000; i++ {
		act := agent.SelectAction(s)
		ns, r, done := e.Step(act)
		if err := agent.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
			t.Fatal(err)
		}
		s = ns
		if done {
			s = e.Reset()
		}
	}
	if !agent.Trained() {
		t.Fatal("agent should be trained")
	}

	var buf bytes.Buffer
	if err := SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAgent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != agent.Name() {
		t.Errorf("restored design %q", restored.Name())
	}
	if !restored.Trained() {
		t.Fatal("restored agent must be trained")
	}
	// Greedy decisions must agree across a batch of probe states.
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		probe := make([]float64, 4)
		r.FillUniform(probe, -1, 1)
		if agent.GreedyAction(probe) != restored.GreedyAction(probe) {
			t.Fatalf("greedy action mismatch at probe %d", i)
		}
	}
	// σmax(β) identical.
	if math.Abs(agent.BetaSigmaMax()-restored.BetaSigmaMax()) > 1e-9 {
		t.Error("restored beta differs")
	}
	// The restored agent continues learning without error.
	s = e.Reset()
	for i := 0; i < 100; i++ {
		act := restored.SelectAction(s)
		ns, rw, done := e.Step(act)
		if err := restored.Observe(replay.Transition{State: s, Action: act, Reward: rw, NextState: ns, Done: done}); err != nil {
			t.Fatal(err)
		}
		s = ns
		if done {
			s = e.Reset()
		}
	}
}

// TestAgentRoundTripEncodings: snapshots of the extensions beyond the
// paper — one-hot actions, the standard output model, Double Q — load
// back with their config and networks intact.
func TestAgentRoundTripEncodings(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*qnet.Config)
	}{
		{"one-hot", func(c *qnet.Config) { c.OneHotActions = true }},
		{"standard-output", func(c *qnet.Config) { c.StandardOutputModel = true }},
		{"double-q", func(c *qnet.Config) { c.DoubleQ = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
			tc.edit(&cfg)
			agent := qnet.MustNew(cfg)
			s := []float64{0.1, -0.2, 0.03, 0.4}
			for i := 0; i < 12; i++ {
				tr := replay.Transition{State: s, Action: i % 2, Reward: 0.1 * float64(i%3), NextState: s}
				if err := agent.Observe(tr); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := SaveAgent(&buf, agent); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadAgent(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got, want := restored.Config(), agent.Config()
			if got.OneHotActions != want.OneHotActions || got.StandardOutputModel != want.StandardOutputModel ||
				got.DoubleQ != want.DoubleQ {
				t.Errorf("restored config %+v, saved %+v", got, want)
			}
			qa, err := agent.NewEvaluator().QValues(s)
			if err != nil {
				t.Fatal(err)
			}
			qb, err := restored.NewEvaluator().QValues(s)
			if err != nil {
				t.Fatal(err)
			}
			for act := range qa {
				if qa[act] != qb[act] {
					t.Errorf("Q(s, %d) = %v restored, %v saved", act, qb[act], qa[act])
				}
			}
		})
	}
}

func TestAgentSnapshotIsJSON(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8)
	agent := qnet.MustNew(cfg)
	var buf bytes.Buffer
	if err := SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range []string{`"config"`, `"theta1"`, `"theta2"`, `"alpha"`, `"hidden":8`} {
		if !strings.Contains(out, key) {
			t.Errorf("snapshot missing %s", key)
		}
	}
}

func TestLoadAgentErrorPaths(t *testing.T) {
	if _, err := LoadAgent(strings.NewReader("{bad")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadAgent(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version must fail")
	}
	if _, err := LoadAgent(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("missing networks must fail")
	}
	// A valid snapshot with corrupted theta dimensions must be rejected by
	// RestoreModels.
	cfg := qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8)
	agent := qnet.MustNew(cfg)
	var buf bytes.Buffer
	if err := SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), `"hidden":8`, `"hidden":16`, 1)
	if _, err := LoadAgent(strings.NewReader(corrupted)); err == nil {
		t.Error("config/network dimension mismatch must fail")
	}
}

func TestDecodeMatrixErrors(t *testing.T) {
	if _, err := decodeMatrix(&matrixJSON{Rows: 2, Cols: 2, Data: []float64{1}}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := decodeMatrix(&matrixJSON{Rows: -1, Cols: 2}); err == nil {
		t.Error("negative dims must fail")
	}
	// Rows·Cols wraps to 0 in int, matching an empty payload.
	huge := 1 << (bits.UintSize / 2)
	if _, err := decodeMatrix(&matrixJSON{Rows: huge, Cols: huge}); err == nil {
		t.Error("dims whose product overflows must fail")
	}
	m, err := decodeMatrix(nil)
	if err != nil || m != nil {
		t.Error("nil payload must decode to nil")
	}
}

func TestAgentFileRoundTrip(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2, 4, 2, 8)
	agent := qnet.MustNew(cfg)
	path := filepath.Join(t.TempDir(), "agent.json")
	if err := SaveAgentFile(path, agent); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAgentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != agent.Name() || restored.Config().Hidden != 8 {
		t.Errorf("restored %s hidden=%d", restored.Name(), restored.Config().Hidden)
	}
}

func TestLoadAgentFileErrors(t *testing.T) {
	if _, err := LoadAgentFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must error")
	}
	// A future format version must be rejected with the path in the error.
	path := filepath.Join(t.TempDir(), "v999.json")
	agent := qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8))
	var buf bytes.Buffer
	if err := SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	snap := strings.Replace(buf.String(), `{"version":1,`, `{"version":999,`, 1)
	if !strings.Contains(snap, `"version":999`) {
		t.Fatal("fixture did not rewrite the version field")
	}
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadAgentFile(path)
	if err == nil {
		t.Fatal("version 999 snapshot must be rejected")
	}
	if !strings.Contains(err.Error(), "version 999") || !strings.Contains(err.Error(), path) {
		t.Errorf("error should name the version and path: %v", err)
	}
}

// A loader polling the checkpoint while a writer keeps replacing it must
// only ever see a complete snapshot, old or new.
func TestSaveAgentFileAtomic(t *testing.T) {
	agents := []*qnet.Agent{
		qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELML2, 4, 2, 8)),
		qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELML2, 4, 2, 64)),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.json")
	if err := SaveAgentFile(path, agents[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		for i := 0; i < 40; i++ {
			if err := SaveAgentFile(path, agents[i%2]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	loads := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if loads == 0 {
				t.Fatal("the loader never ran")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("directory holds %d entries after the saves, want only the checkpoint", len(entries))
			}
			return
		default:
		}
		a, err := LoadAgentFile(path)
		if err != nil {
			t.Fatalf("load %d during saves: %v", loads, err)
		}
		if h := a.Config().Hidden; h != 8 && h != 64 {
			t.Fatalf("loaded a %d-unit agent", h)
		}
		loads++
	}
}

// A failed save leaves no temp file behind and the target untouched.
func TestSaveAgentFileErrorRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "occupied")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	agent := qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8))
	if err := SaveAgentFile(target, agent); err == nil {
		t.Fatal("renaming over a directory must fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "occupied" || !entries[0].IsDir() {
		t.Fatalf("directory after a failed save: %v", entries)
	}
}

// A small checkpoint whose config declares a huge width is rejected from
// its payload's shapes, before any model of that width is built.
func TestLoadAgentRejectsOversizedConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveAgent(&buf, qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 2))); err != nil {
		t.Fatal(err)
	}
	snap := strings.Replace(buf.String(), `"hidden":2,`, `"hidden":400000,`, 1)
	if !strings.Contains(snap, `"hidden":400000`) {
		t.Fatal("fixture did not rewrite the hidden field")
	}
	if len(snap) > 2000 {
		t.Fatalf("fixture is %d bytes, want a small checkpoint", len(snap))
	}
	start := time.Now()
	_, err := LoadAgent(strings.NewReader(snap))
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "400000") {
		t.Fatalf("want a dimension error naming the declared width, got %v", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("rejection took %v", elapsed)
	}
}
