package main

import (
	"fmt"
	"runtime"
	"time"

	"oselmrl"
	"oselmrl/internal/env"
	"oselmrl/internal/fpga"
	"oselmrl/internal/harness"
	"oselmrl/internal/obs"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/timing"
)

// spanSampleEvery is the traced run's span sampling rate: the per-call
// spans of every spanSampleEvery-th episode are kept. Per-call timings are
// aggregated for every call regardless.
const spanSampleEvery = 16

// exact is everything about a trial that must repeat bit for bit: with the
// same seed, in a repeat, and with or without the tracing wrappers.
type exact struct {
	steps, episodes, resets int
	bestAvg100              float64
	calls                   [len(phases)]int64
	modelS                  [len(phases)]float64
	guardTrips              int64
}

// phases are the timing phases the two designs report.
var phases = [...]timing.Phase{
	timing.PhaseSeqTrain, timing.PhasePredictSeq, timing.PhaseInitTrain, timing.PhasePredictInit,
}

type trialResult struct {
	exact
	wall  time.Duration
	laps  []lap // when asked for (see lapEnv)
	err   error
	agent harness.Agent
}

// runTrial runs one trial of the design. A non-nil tracer times every agent
// and env call through wrappers; with timeLaps the trial's wall time is
// split into laps (see lapEnv).
func runTrial(d harness.Design, seed uint64, episodes int, tt *trainTracer, timeLaps bool) (trialResult, error) {
	a, err := harness.NewAgent(d, obsSize, actionCount, trainHidden, seed)
	if err != nil {
		return trialResult{}, fmt.Errorf("building %s agent: %w", d, err)
	}
	var e env.Env = oselmrl.NewCartPole(seed)
	cfg := harness.RunConfigFor(d, harness.Defaults())
	cfg.MaxEpisodes = episodes

	var ra harness.Agent = a
	if tt != nil {
		ra, e = &timedAgent{Agent: a, tt: tt}, &timedEnv{Env: e, tt: tt}
	}
	var le *lapEnv
	if timeLaps {
		le = &lapEnv{Env: e, ctr: a.Counters()}
		e = le
	}
	start := time.Now()
	var sp obs.Span
	if tt != nil {
		tt.beginTrial(seed, start)
		sp = tt.tr.StartSpanGroup("harness.run", tt.group)
	}
	res := harness.Run(ra, e, cfg)
	sp.End()
	end := time.Now()
	wall := end.Sub(start)
	if tt != nil {
		tt.endTrial(wall)
	}

	r := trialResult{wall: wall, agent: a, err: res.Err}
	if le != nil {
		r.laps = le.finish(end)
	}
	r.steps, r.episodes, r.resets = res.TotalSteps, res.Episodes, res.Resets
	for _, st := range res.Curve {
		if st.Episode >= cfg.SolveWindow && st.MovingAvg > r.bestAvg100 {
			r.bestAvg100 = st.MovingAvg
		}
	}
	model := harness.Breakdown(d, res.Counters)
	for i, p := range phases {
		r.calls[i] = res.Counters.Calls(p)
		r.modelS[i] = model[p]
	}
	switch ag := a.(type) {
	case *fpga.Agent:
		r.guardTrips = ag.Core().DenomGuardTrips()
	case *qnet.Agent:
		r.guardTrips = ag.Theta1().GuardTrips()
	}
	return r, nil
}

// callStat aggregates the durations of one kind of call.
type callStat struct {
	total time.Duration
	n     int64
}

func (s *callStat) add(d time.Duration) { s.total += d; s.n++ }

func (s callStat) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(time.Microsecond)
}

// trainTracer times the calls the harness makes into the agent and the
// environment. It is used by one goroutine at a time.
type trainTracer struct {
	tr      *obs.Tracer
	group   string
	episode int

	selectS, observeS, endS, stepS, resetS callStat
	// cov is the union of the current trial's agent and env calls inside
	// its harness.Run span; runSelf sums the rest, the harness's own time.
	cov     coverage
	runSelf time.Duration
	steps   int64
}

func (t *trainTracer) beginTrial(seed uint64, start time.Time) {
	t.group = fmt.Sprintf("train/seed-%d", seed)
	t.episode = 0
	// The run's end is not known yet; endTrial subtracts what the children
	// covered from the run's wall time.
	t.cov = newCoverage(start, start.Add(24*time.Hour))
}

func (t *trainTracer) endTrial(wall time.Duration) {
	t.runSelf += wall - t.cov.covered
}

// begin starts timing one call; spans are kept for sampled episodes only.
func (t *trainTracer) begin(name string) (obs.Span, time.Time) {
	var sp obs.Span
	if t.episode%spanSampleEvery == 0 {
		sp = t.tr.StartSpanGroup(name, t.group)
	}
	return sp, time.Now()
}

func (t *trainTracer) end(s *callStat, sp obs.Span, start time.Time) {
	end := time.Now()
	sp.End()
	s.add(end.Sub(start))
	t.cov.add(start, end)
}

// timedAgent wraps a harness.Agent, timing the calls harness.Run makes.
type timedAgent struct {
	harness.Agent
	tt *trainTracer
}

func (a *timedAgent) SelectAction(state []float64) int {
	sp, t0 := a.tt.begin("agent.select")
	act := a.Agent.SelectAction(state)
	a.tt.end(&a.tt.selectS, sp, t0)
	return act
}

func (a *timedAgent) Observe(tr replay.Transition) error {
	sp, t0 := a.tt.begin("agent.observe")
	err := a.Agent.Observe(tr)
	a.tt.end(&a.tt.observeS, sp, t0)
	return err
}

func (a *timedAgent) EndEpisode(episode int) {
	sp, t0 := a.tt.begin("agent.end_episode")
	a.Agent.EndEpisode(episode)
	a.tt.end(&a.tt.endS, sp, t0)
	a.tt.episode++
}

// timedEnv wraps an env.Env, timing Reset and Step.
type timedEnv struct {
	env.Env
	tt *trainTracer
}

func (e *timedEnv) Reset() []float64 {
	sp, t0 := e.tt.begin("env.reset")
	s := e.Env.Reset()
	e.tt.end(&e.tt.resetS, sp, t0)
	return s
}

func (e *timedEnv) Step(action int) ([]float64, float64, bool) {
	sp, t0 := e.tt.begin("env.step")
	s, r, done := e.Env.Step(action)
	e.tt.end(&e.tt.stepS, sp, t0)
	e.tt.steps++
	return s, r, done
}

// lapEnv splits a trial's wall time into laps at every env call: a lap
// runs from one Reset or Step call to the next, so it holds the agent's
// calls in between, and the last lap ends with the run. Each lap records
// its kind (see lapKind).
type lapEnv struct {
	env.Env
	ctr  *timing.Counters
	last time.Time
	from byte               // the call that started the current lap
	prev [len(phases)]int64 // the agent's calls by phase at its start
	laps []lap
}

// lap is one lap's wall time and kind.
type lap struct {
	d    time.Duration
	kind lapKind
}

// lapKind is what a lap did: the calls that start and end it ('r' Reset,
// 's' Step, 'e' the end of the run) and the agent's calls in it by timing
// phase. Laps of one kind do the same work, since the fixed-point and
// float kernels take the same steps whatever the data.
type lapKind struct {
	from, to byte
	calls    [len(phases)]int32
}

func (e *lapEnv) lap(to byte, now time.Time) {
	var calls [len(phases)]int64
	for i, p := range phases {
		calls[i] = e.ctr.Calls(p)
	}
	if !e.last.IsZero() {
		l := lap{d: now.Sub(e.last), kind: lapKind{from: e.from, to: to}}
		for i := range calls {
			l.kind.calls[i] = int32(calls[i] - e.prev[i])
		}
		e.laps = append(e.laps, l)
	}
	e.last, e.from, e.prev = now, to, calls
}

func (e *lapEnv) Reset() []float64 {
	e.lap('r', time.Now())
	return e.Env.Reset()
}

func (e *lapEnv) Step(action int) ([]float64, float64, bool) {
	e.lap('s', time.Now())
	return e.Env.Step(action)
}

// finish ends the last lap at end and returns the laps.
func (e *lapEnv) finish(end time.Time) []lap {
	e.lap('e', end)
	return e.laps
}

// trainReport is the outcome of the training phase.
type trainReport struct {
	pass     []exact // the first pass; the exact metrics come from it
	trials   int
	failed   int
	mismatch []string
	last     harness.Agent // the final trained agent, for the kernel probes

	// Untraced runs only: the steps per second of the pass at its laps'
	// fast times (see trainer), and the steps per second of every trial
	// run, for the readable summary.
	bestRate float64
	rates    []float64
	lapKinds int

	// Traced runs only.
	tt                         *trainTracer
	tracedWall, untracedWall   time.Duration
	tracedSteps, untracedSteps int64
	allocBytes, gcPause        uint64
}

func (r *trainReport) note(res trialResult) {
	r.trials++
	if res.err != nil {
		r.failed++
	}
	r.last = res.agent
}

// lapPct is the percentile of a kind of lap's times taken as its fast time.
const lapPct = 0.1

// trainer runs the untraced training phase in slices of whole trials: one
// pass of trialsPerPass trials, then repeats of the same trials, each
// checked to be exact. The host this runs on shares its cores and runs the
// process up to twice as slowly, in spells of milliseconds that can fill
// most of a run, so a whole trial's time moves by tens of percent. Laps of
// one kind do the same work, and a run holds thousands of each, so the
// trainer keeps every kind's lap times and prices the pass's laps at the
// lapPct-th percentile of their kind: the time that kind takes when the
// host runs fast, which even a mostly slow run reaches now and then.
type trainer struct {
	w        workload
	seed     uint64
	runs     int
	lastRun  [trialsPerPass]time.Duration
	passLaps [trialsPerPass][]lap
	lapTimes map[lapKind]*hist // microseconds, over every run
	rep      trainReport
}

// startTraining runs the unmeasured warm-up trial and returns the trainer.
func startTraining(w workload, seed uint64) (*trainer, error) {
	if _, err := runTrial(w.design, trialSeed(seed, 0), warmupEpisodes, nil, false); err != nil {
		return nil, err
	}
	return &trainer{w: w, seed: seed, lapTimes: map[lapKind]*hist{}}, nil
}

// newLapHist resolves 0.1 µs to 100 ms in 0.2% buckets.
func newLapHist() *hist { return newHistRange(0.1, 1.002, 1e6) }

// next runs the next trial of the cycle.
func (t *trainer) next() error {
	k := t.runs % trialsPerPass
	res, err := runTrial(t.w.design, trialSeed(t.seed, k), episodeCap, nil, true)
	if err != nil {
		return err
	}
	t.runs++
	t.rep.note(res)
	t.rep.rates = append(t.rep.rates, float64(res.steps)/res.wall.Seconds())
	t.lastRun[k] = res.wall
	for _, l := range res.laps {
		h := t.lapTimes[l.kind]
		if h == nil {
			h = newLapHist()
			t.lapTimes[l.kind] = h
		}
		h.add(float64(l.d) / float64(time.Microsecond))
	}
	switch {
	case t.runs <= trialsPerPass:
		t.rep.pass = append(t.rep.pass, res.exact)
		t.passLaps[k] = res.laps
	case res.exact != t.rep.pass[k]:
		t.rep.mismatch = append(t.rep.mismatch, fmt.Sprintf("trial seed %d differs on repeat", trialSeed(t.seed, k)))
	}
	return nil
}

// slice runs whole trials for about d: at least one, and no further trial
// once the last run of that trial would end past d.
func (t *trainer) slice(d time.Duration) error {
	end := time.Now().Add(d)
	for {
		if err := t.next(); err != nil {
			return err
		}
		if time.Now().Add(t.lastRun[t.runs%trialsPerPass]).After(end) {
			return nil
		}
	}
}

// finish completes the first pass if the slices did not, and returns the
// report with the pass's steps per second at its laps' fast times.
func (t *trainer) finish() (*trainReport, error) {
	for t.runs < trialsPerPass {
		if err := t.next(); err != nil {
			return nil, err
		}
	}
	fast := map[lapKind]float64{}
	for kind, h := range t.lapTimes {
		fast[kind] = h.percentile(lapPct)
	}
	totalUS := 0.0
	for _, laps := range t.passLaps {
		for _, l := range laps {
			totalUS += fast[l.kind]
		}
	}
	tot, _ := passTotals(t.rep.pass)
	t.rep.bestRate = float64(tot.steps) / totalUS * 1e6
	t.rep.lapKinds = len(t.lapTimes)
	return &t.rep, nil
}

// runTracedTraining runs every trial of the pass once with and once
// without the tracing wrappers, alternating which goes first, and checks
// that the two agree.
func runTracedTraining(w workload, seed uint64, tr *obs.Tracer) (*trainReport, error) {
	if _, err := runTrial(w.design, trialSeed(seed, 0), warmupEpisodes, nil, false); err != nil {
		return nil, err
	}
	tt := &trainTracer{tr: tr}
	rep := &trainReport{tt: tt}
	var ms0, ms1 runtime.MemStats
	for k := 0; k < trialsPerPass; k++ {
		s := trialSeed(seed, k)
		var traced, plain trialResult
		for j := 0; j < 2; j++ {
			if (j == 0) == (k%2 == 0) {
				res, err := runTrial(w.design, s, episodeCap, tt, false)
				if err != nil {
					return nil, err
				}
				traced = res
				continue
			}
			runtime.ReadMemStats(&ms0)
			res, err := runTrial(w.design, s, episodeCap, nil, false)
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&ms1)
			rep.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			rep.gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
			plain = res
		}
		rep.note(traced)
		rep.note(plain)
		rep.pass = append(rep.pass, plain.exact)
		rep.tracedWall += traced.wall
		rep.tracedSteps += int64(traced.steps)
		rep.untracedWall += plain.wall
		rep.untracedSteps += int64(plain.steps)
		if traced.exact != plain.exact {
			rep.mismatch = append(rep.mismatch, fmt.Sprintf("trial seed %d differs with tracing on", s))
		}
	}
	return rep, nil
}

// passTotals sums the exact pass.
func passTotals(pass []exact) (e exact, bestMean float64) {
	for _, p := range pass {
		e.steps += p.steps
		e.episodes += p.episodes
		e.resets += p.resets
		e.guardTrips += p.guardTrips
		bestMean += p.bestAvg100 / float64(len(pass))
		for i := range phases {
			e.calls[i] += p.calls[i]
			e.modelS[i] += p.modelS[i]
		}
	}
	return e, bestMean
}
