package qnet

import (
	"math"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/oselm"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/timing"
)

// Learner is the arithmetic under the Algorithm 1 driver: the networks θ1
// and θ2, how they are evaluated and trained, and what each phase costs
// on the device the learner models. The float learner (FloatLearner, over
// internal/oselm) and the fixed-point learner (internal/fpga) implement it.
type Learner interface {
	// Setup binds the learner to a validated config and allocates its
	// state, or rejects a config the learner cannot run.
	Setup(cfg Config) error
	// Draw draws fresh random weights from r for θ1, sets θ2 ← θ1 and
	// forgets init training (construction and Reinitialize).
	Draw(r *rng.RNG)
	// Ready reports whether init training has run: the sequential regime.
	Ready() bool
	// QValues writes Q(state, a) for every action into q, under θ1, or
	// under θ2 when target is set.
	QValues(q, state []float64, target bool)
	// PeekQValues writes θ1's Q values like QValues, off the cost model:
	// greedy evaluation, which no phase is charged for, must not move
	// the learner's cost meter either.
	PeekQValues(q, state []float64)
	// InitTrain fits θ1 to buffer D's transitions and their targets y (for
	// batch ELM, every refill of D; it also sets θ2 ← θ1).
	InitTrain(trans []replay.Transition, y []float64) error
	// SeqTrain runs one sequential update of θ1 toward y on t. With probe
	// set it returns θ1's Q(s, a) before the update, read off the cost
	// model; otherwise pred may be NaN.
	SeqTrain(t replay.Transition, y float64, probe bool) (pred float64, err error)
	// SyncTarget sets θ2 ← θ1 and reports whether it did.
	SyncTarget() bool
	// Health snapshots θ1's numeric health at a θ2 sync.
	Health() oselm.NumericHealth
	// Mark returns the learner's cost meter, read before a phase runs.
	Mark() int64
	// Charge books one invocation of phase p, begun at mark, on c and
	// returns its modelled device seconds; n is the number of transitions
	// an init training fitted. A non-nil data gains the learner's own
	// fields of the phase's event.
	Charge(c *timing.Counters, p timing.Phase, mark int64, n int, data map[string]float64) float64
	// SetObserver hands the learner the observability emitter (nil: off).
	SetObserver(e *obs.Emitter)
	// Flush publishes telemetry the learner accumulates between flushes;
	// the driver calls it after each init training's event.
	Flush()
}

// Driver is Algorithm 1 itself, over a Learner: ε-greedy selection with a
// random tie-break, buffer D and the init/batch training it triggers, the
// ε₂ random update, the clipped Bellman target (plain or Double Q), the
// θ2 sync cadence, exploration decay and the reset rule, with their
// spans, events and metrics. Every random choice comes from one RNG in a
// fixed order: weight draws at construction and Reinitialize, then per
// step the explore draw, the argmax tie draws and the ε₂ draw.
type Driver struct {
	cfg Config
	l   Learner
	rng *rng.RNG

	buffer      *replay.InitStore
	globalStep  int
	exploreProb float64
	// targetsN / targetsClipped track the Bellman-target clip rate since
	// (re)initialization, published as the learn_clip_rate gauge at sync.
	targetsN, targetsClipped int64
	// batchTrained marks that the batch-ELM variant has completed at least
	// one training (its learner never becomes Ready).
	batchTrained bool
	counters     *timing.Counters

	// qs holds one Q value per action and ys the targets of one buffer
	// drain, so the hot path does not allocate.
	qs, ys []float64

	// obs receives structured events and metrics; nil (the default)
	// disables observability at the cost of one nil check per guard.
	obs *obs.Emitter
}

// NewDriver validates cfg, binds l to it and draws the initial weights.
func NewDriver(cfg Config, l Learner) (*Driver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := l.Setup(cfg); err != nil {
		return nil, err
	}
	d := &Driver{
		cfg:      cfg,
		l:        l,
		rng:      rng.New(cfg.Seed),
		buffer:   replay.NewInitStore(cfg.Hidden),
		counters: timing.NewCounters(),
		qs:       make([]float64, cfg.ActionCount),
		ys:       make([]float64, cfg.Hidden),
	}
	d.Reinitialize()
	return d, nil
}

// Reinitialize draws fresh random weights — the §4.3 reset rule for
// unpromising initializations ("reset if they did not complete the task
// after 300 episodes"). Timing counters are preserved: the paper's
// time-to-complete includes failed attempts.
func (d *Driver) Reinitialize() {
	d.l.Draw(d.rng)
	d.buffer.Clear()
	d.globalStep = 0
	d.exploreProb = 1 - d.cfg.Epsilon1
	d.batchTrained = false
	d.targetsN, d.targetsClipped = 0, 0
}

// Name returns the paper's design name.
func (d *Driver) Name() string { return d.cfg.Variant.String() }

// Config returns the agent's configuration.
func (d *Driver) Config() Config { return d.cfg }

// Counters exposes the per-phase work accumulated so far, in the units
// the learner charges.
func (d *Driver) Counters() *timing.Counters { return d.counters }

// SetObserver installs the observability emitter (harness.Observable).
func (d *Driver) SetObserver(e *obs.Emitter) {
	d.obs = e
	d.l.SetObserver(e)
}

// Trained reports whether initial training has completed (OS-ELM) or the
// first batch training has run (ELM).
func (d *Driver) Trained() bool { return d.l.Ready() || d.batchTrained }

// GlobalStep returns the number of Observe calls since (re)initialization.
func (d *Driver) GlobalStep() int { return d.globalStep }

// ExploreProb returns the current per-step random-action probability.
func (d *Driver) ExploreProb() float64 { return d.exploreProb }

// maxQ returns max over actions of Q(s, ·) under θ1 (θ2 with target), and
// the argmax with uniform random tie-breaking (before training all Q
// values are 0, so a deterministic argmax would freeze on action 0).
func (d *Driver) maxQ(state []float64, target bool) (best float64, argmax int) {
	d.l.QValues(d.qs, state, target)
	return d.bestQ()
}

// bestQ is maxQ over the Q values already in d.qs.
func (d *Driver) bestQ() (best float64, argmax int) {
	best = math.Inf(-1)
	ties := 0
	for act, q := range d.qs {
		switch {
		case q > best:
			best, argmax, ties = q, act, 1
		case q == best:
			ties++
			if d.rng.Intn(ties) == 0 {
				argmax = act
			}
		}
	}
	return best, argmax
}

// predictPhase is predict_init before the initial training completes and
// predict_seq after, matching the paper's Figure 5 legend. The batch ELM
// retrains forever and never enters a sequential regime, so its
// predictions all count as predict_init — matching the paper's ELM bars
// (init_train + predict_init dominant).
func (d *Driver) predictPhase() timing.Phase {
	if d.l.Ready() {
		return timing.PhasePredictSeq
	}
	return timing.PhasePredictInit
}

// SelectAction implements Algorithm 1 lines 10-13: greedy with probability
// ε₁, uniformly random otherwise.
func (d *Driver) SelectAction(state []float64) int {
	if d.rng.Float64() < d.exploreProb {
		return d.rng.Intn(d.cfg.ActionCount)
	}
	phase := d.predictPhase()
	sp := d.obs.StartSpan(string(phase))
	mark := d.l.Mark()
	_, act := d.maxQ(state, false)
	model := d.l.Charge(d.counters, phase, mark, 0, nil)
	if sp.Active() {
		sp.EndModelled(model)
	}
	return act
}

// GreedyAction returns argmax_a Q(s,a) without exploration (evaluation),
// read off the cost model.
func (d *Driver) GreedyAction(state []float64) int {
	d.l.PeekQValues(d.qs, state)
	_, act := d.bestQ()
	return act
}

// target computes the clipped Bellman target of Algorithm 1 lines 19/22:
// clip(r + γ(1-d)·max_a Qθ2(s', a), ClipLow, ClipHigh).
func (d *Driver) target(t replay.Transition) float64 {
	y := t.Reward
	if !t.Done {
		var next float64
		if d.cfg.DoubleQ {
			// Double Q: θ1 selects, θ2 evaluates.
			_, act := d.maxQ(t.NextState, false)
			d.l.QValues(d.qs, t.NextState, true)
			next = d.qs[act]
		} else {
			next, _ = d.maxQ(t.NextState, true)
		}
		y += d.cfg.Gamma * next
	}
	clipped := false
	if y < d.cfg.ClipLow {
		y = d.cfg.ClipLow
		clipped = true
	}
	if y > d.cfg.ClipHigh {
		y = d.cfg.ClipHigh
		clipped = true
	}
	d.targetsN++
	if clipped {
		d.targetsClipped++
	}
	if d.obs != nil {
		d.obs.Inc(obs.MetricTargets, 1)
		if clipped {
			d.obs.Inc(obs.MetricTargetsClipped, 1)
		}
	}
	return y
}

// Observe implements Algorithm 1 lines 14-22: store the transition and run
// the appropriate update.
func (d *Driver) Observe(t replay.Transition) error {
	d.globalStep++
	// Lines 16-19: once D holds Ñ transitions, run the initial training.
	// Batch ELM keeps refilling D and retraining whenever it is full.
	if !d.l.Ready() || !d.cfg.Variant.Sequential() {
		d.bufferAdd(t)
		if d.buffer.Full() {
			return d.trainFromBuffer()
		}
		return nil
	}
	// Lines 20-22: random update — sequential training with probability ε₂.
	if d.rng.Float64() < d.cfg.Epsilon2 {
		return d.sequentialUpdate(t)
	}
	d.obs.Inc(obs.MetricSeqSkipped, 1)
	return nil
}

// bufferAdd stores one transition in D under a "buffer_refill" trace
// span, tracking occupancy.
func (d *Driver) bufferAdd(t replay.Transition) {
	sp := d.obs.StartSpan("buffer_refill")
	d.buffer.Add(t)
	if d.obs != nil {
		d.obs.SetGauge(obs.GaugeBufferOccupancy, float64(d.buffer.Len())/float64(d.buffer.Cap()))
	}
	sp.End()
}

// trainFromBuffer runs the initial/batch training on buffer D with targets
// computed from θ2 (Algorithm 1 lines 17-19), then clears D.
func (d *Driver) trainFromBuffer() error {
	sp := d.obs.StartSpan(string(timing.PhaseInitTrain))
	t0 := d.obs.Now()
	retrain := d.Trained() // refilled-buffer retrain vs first initial training
	mark := d.l.Mark()
	trans := d.buffer.Drain()
	y := d.ys[:len(trans)]
	for i, tr := range trans {
		y[i] = d.target(tr)
	}
	err := d.l.InitTrain(trans, y)
	if !d.cfg.Variant.Sequential() {
		d.batchTrained = true
	}
	var data map[string]float64
	if d.obs != nil {
		data = make(map[string]float64, 6)
	}
	model := d.l.Charge(d.counters, timing.PhaseInitTrain, mark, len(trans), data)
	if d.obs != nil {
		sp.EndModelled(model)
		dur := time.Since(t0)
		d.obs.AddWall(string(timing.PhaseInitTrain), dur)
		d.obs.Inc(obs.MetricInitTrains, 1)
		d.obs.SetGauge(obs.GaugeBufferOccupancy, 0)
		data["size"] = float64(len(trans))
		data["step"] = float64(d.globalStep)
		data["retrain"] = boolTo01(retrain)
		data["dur_ms"] = float64(dur) / float64(time.Millisecond)
		data["model_ms"] = model * 1e3
		d.obs.Emit(obs.EventInitTrain, 0, data)
		d.l.Flush()
	}
	return err
}

// sequentialUpdate runs one sequential update toward the clipped target
// (Algorithm 1 line 22).
func (d *Driver) sequentialUpdate(t replay.Transition) error {
	sp := d.obs.StartSpan(string(timing.PhaseSeqTrain))
	t0 := d.obs.Now()
	mark := d.l.Mark()
	y := d.target(t)
	// pred is Qθ1(s, a) before the update; y − pred is the TD error the
	// update corrects. The probe runs only when an emitter is attached and
	// is excluded from the cost model (the real device would not run it).
	pred, err := d.l.SeqTrain(t, y, d.obs != nil)
	model := d.l.Charge(d.counters, timing.PhaseSeqTrain, mark, 1, nil)
	if d.obs != nil {
		sp.EndModelled(model)
		dur := time.Since(t0)
		tdErr := y - pred
		d.obs.AddWall(string(timing.PhaseSeqTrain), dur)
		d.obs.Inc(obs.MetricSeqUpdates, 1)
		d.obs.Observe(obs.HistLearnTDErrorAbs, math.Abs(tdErr))
		d.obs.Observe(obs.HistLearnQValue, pred)
		d.obs.Emit(obs.EventSeqUpdate, 0, map[string]float64{
			"step":     float64(d.globalStep),
			"target":   y,
			"td_error": tdErr,
			"dur_ms":   float64(dur) / float64(time.Millisecond),
			"model_ms": model * 1e3,
		})
	}
	return err
}

// EndEpisode implements Algorithm 1 lines 23-24: every UpdateEvery
// episodes, sync the target network θ2 ← θ1. Episodes are 1-based. Batch
// ELM never syncs here: it sets θ2 ← θ1 at each retrain (§3.1's target
// network is OS-ELM-specific).
func (d *Driver) EndEpisode(episode int) {
	d.exploreProb *= d.cfg.ExploreDecay
	if !d.cfg.Variant.Sequential() || episode%d.cfg.UpdateEvery != 0 {
		return
	}
	if !d.l.SyncTarget() || d.obs == nil {
		return
	}
	// σmax(β) is the Lipschitz bound the §3.3 regularization caps; tracked
	// at sync points so its drift over a run is inspectable, together with
	// the learn_* numeric-health gauges.
	h := d.l.Health()
	d.obs.Inc(obs.MetricTheta2Syncs, 1)
	d.obs.SetGauge(obs.GaugeBetaSigmaMax, h.BetaSigmaMax)
	d.obs.Observe(obs.GaugeBetaSigmaMax, h.BetaSigmaMax)
	d.obs.SetGauge(obs.GaugeLearnBetaNorm, h.BetaNorm)
	if d.l.Ready() {
		d.obs.SetGauge(obs.GaugeLearnPTrace, h.PTrace)
		d.obs.SetGauge(obs.GaugeLearnPCond, h.PCondProxy)
	}
	if d.targetsN > 0 {
		d.obs.SetGauge(obs.GaugeLearnClipRate, float64(d.targetsClipped)/float64(d.targetsN))
	}
	d.obs.Emit(obs.EventTheta2Sync, episode, map[string]float64{
		"beta_sigma_max": h.BetaSigmaMax,
		"beta_norm":      h.BetaNorm,
	})
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
