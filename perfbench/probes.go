package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"oselmrl/internal/fixed"
	"oselmrl/internal/fpga"
	"oselmrl/internal/mat"
	"oselmrl/internal/obs"
	"oselmrl/internal/oselm"
	"oselmrl/internal/qnet"
)

// probeRounds is how many rounds of timed calls a probe makes; it reports
// the median round's time per call.
const probeRounds = 5

// timeRounds calls f calls times per round and returns the median round's
// microseconds per call.
func timeRounds(calls int, f func(i int)) float64 {
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f(i)
		}
		per[r] = float64(time.Since(t0)) / float64(calls) / float64(time.Microsecond)
	}
	return median(per)
}

// allocsPerCall returns the heap allocations per call of f.
func allocsPerCall(calls int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls)
}

// probeInputs turns CartPole states into network inputs: the state and the
// action index, alternating between the two actions.
func probeInputs(states [][]float64) [][]float64 {
	xs := make([][]float64, len(states))
	for i, s := range states {
		xs[i] = append(append([]float64(nil), s...), float64(i%actionCount))
	}
	return xs
}

// probeFPGA times the fixed-point core's Predict and SeqTrain entry points
// and checks that one call of each costs the analytic cycle count.
func probeFPGA(core *fpga.Core, states [][]float64, tr *obs.Tracer, m metrics) []string {
	sp := tr.StartSpanGroup("fpga.probe", "probe")
	defer sp.End()
	q := core.Format()
	xs := make([][]fixed.Fixed, len(states))
	for i, x := range probeInputs(states) {
		xs[i] = make([]fixed.Fixed, len(x))
		for j, v := range x {
			xs[i][j] = q.FromFloat(v)
		}
	}
	target := []fixed.Fixed{q.FromFloat(0.5)}

	var gates []string
	trips := core.DenomGuardTrips()
	c0 := core.Cycles()
	core.Predict(xs[0])
	predictCycles := core.Cycles() - c0
	c0 = core.Cycles()
	core.SeqTrain(xs[0], target)
	seqCycles := core.Cycles() - c0
	if core.DenomGuardTrips() != trips {
		gates = append(gates, "fpga: the denominator guard tripped during the cycle probe")
	}
	want := fpga.AnalyticKernelCosts(core.InputSize(), core.HiddenSize(), core.OutputSize(), fpga.DefaultCycleModel())
	if predictCycles != want[fpga.KernelPredict] || seqCycles != want[fpga.KernelSeqTrain] {
		gates = append(gates, fmt.Sprintf("fpga: probed cycles predict=%d seq_train=%d, analytic %d/%d",
			predictCycles, seqCycles, want[fpga.KernelPredict], want[fpga.KernelSeqTrain]))
	}
	if want[fpga.KernelPredict] != wantPredictCycles || want[fpga.KernelSeqTrain] != wantSeqTrainCycles {
		gates = append(gates, fmt.Sprintf("fpga: analytic cycles %d/%d, EXPERIMENTS.md gives %d/%d",
			want[fpga.KernelPredict], want[fpga.KernelSeqTrain], wantPredictCycles, wantSeqTrainCycles))
	}
	m.set("fpga.predict_cycles", float64(predictCycles))
	m.set("fpga.seq_train_cycles", float64(seqCycles))

	n := len(xs)
	m.set("fpga.predict_us", timeRounds(2000, func(i int) { core.Predict(xs[i%n]) }))
	seq := func(i int) { core.SeqTrain(xs[i%n], target) }
	m.set("fpga.seq_train_us", timeRounds(300, seq))
	m.set("fpga.seq_train_allocs", allocsPerCall(300, seq))
	return gates
}

// probeOSELM times the float OS-ELM model's SeqTrainOne and InitTrain.
func probeOSELM(model *oselm.Model, states [][]float64, tr *obs.Tracer, m metrics) []string {
	sp := tr.StartSpanGroup("oselm.probe", "probe")
	defer sp.End()
	xs := probeInputs(states)
	target := []float64{0.5}
	if err := model.SeqTrainOne(xs[0], target); err != nil {
		return []string{fmt.Sprintf("oselm: probe update failed: %v", err)}
	}
	n := len(xs)
	seq := func(i int) { _ = model.SeqTrainOne(xs[i%n], target) } // the first call succeeded; later ones see the same shapes
	m.set("oselm.seq_train_us", timeRounds(2000, seq))
	m.set("oselm.seq_train_allocs", allocsPerCall(2000, seq))

	// The agent's initial training solves over a chunk of as many rows as
	// hidden units (the init buffer's size).
	rows := model.HiddenSize()
	x, t := mat.Zeros(rows, model.InputSize()), mat.Zeros(rows, model.OutputSize())
	for i := 0; i < rows; i++ {
		x.SetRow(i, xs[i%n])
		t.Set(i, 0, 0.5)
	}
	c := model.Clone()
	if err := c.InitTrain(x, t); err != nil {
		return []string{fmt.Sprintf("oselm: probe initial training failed: %v", err)}
	}
	m.set("oselm.init_train_us", timeRounds(20, func(int) { _ = c.InitTrain(x, t) }))
	return nil
}

// probeEvaluator times qnet.Evaluator on one request (QValues) and on a
// batch of eight (QValuesBatch), returning microseconds per row.
func probeEvaluator(a *qnet.Agent, states [][]float64, tr *obs.Tracer, tenant string) (k1US, k8RowUS float64, err error) {
	sp := tr.StartSpanGroup("qnet.eval_probe."+tenant, "probe")
	defer sp.End()
	ev := a.NewEvaluator()
	const k = 8
	batches := make([][][]float64, len(states)/k)
	for i := range batches {
		batches[i] = states[i*k : (i+1)*k]
	}
	if _, err := ev.QValuesBatch(batches[0]); err != nil {
		return 0, 0, err
	}
	// About the same work per round for either width.
	calls := (1 << 20) / a.Config().Hidden
	n := len(states)
	k1US = timeRounds(calls, func(i int) { _, _ = ev.QValues(states[i%n]) })
	nb := len(batches)
	k8US := timeRounds(calls/k, func(i int) { _, _ = ev.QValuesBatch(batches[i%nb]) })
	return k1US, k8US / k, nil
}

// timerOvershoot measures how late time.Sleep(timerProbeSleep) returns, in
// microseconds, at the median and the 99th percentile.
func timerOvershoot() (p50, p99 float64) {
	d := make([]float64, timerProbeSamples)
	for i := range d {
		t0 := time.Now()
		time.Sleep(timerProbeSleep)
		d[i] = float64(time.Since(t0)-timerProbeSleep) / float64(time.Microsecond)
	}
	sort.Float64s(d)
	return percentile(d, 50), percentile(d, 99)
}
