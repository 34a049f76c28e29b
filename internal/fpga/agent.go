package fpga

import (
	"fmt"
	"math"

	"oselmrl/internal/fixed"
	"oselmrl/internal/obs"
	"oselmrl/internal/oselm"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/timing"
)

// Agent is the paper's design (7): Algorithm 1 (qnet.Driver, the same
// driver as the float designs) over the fixed-point learner, whose
// prediction and sequential training run on the cycle-counted
// programmable-logic core and whose initial training runs on the CPU
// (Figure 3). The datapath is Q20 by default; NewAgentQ selects any Qm.f
// format. PL phases are charged in datapath cycles (timing.FPGA125
// converts them), the CPU-side init_train and pre-load predictions in
// flops (timing.CortexA9Init).
//
// The learner supports the design the paper synthesized only:
// OS-ELM-L2-Lipschitz with ReLU hidden units, the scalar action input, the
// simplified (one-output) model and max-over-θ2 targets. NewAgentQ
// rejects any other config.
type Agent struct {
	*qnet.Driver
	l *learner
}

// NewAgent builds the FPGA agent with the default Q20 datapath. A zero
// Delta selects the paper's δ = 0.5 (§4.1).
func NewAgent(cfg qnet.Config, cycles CycleModel) (*Agent, error) {
	return NewAgentQ(cfg, cycles, fixed.QFormat{})
}

// NewAgentQ is NewAgent with the datapath's Qm.f format selectable. The
// zero format is the Q20 default, bit-identical to NewAgent; resources
// and cycle counts do not depend on the format.
func NewAgentQ(cfg qnet.Config, cycles CycleModel, q fixed.QFormat) (*Agent, error) {
	if cfg.Delta == 0 {
		cfg.Delta = 0.5
	}
	l := &learner{cycles: cycles, q: q.Normalized(), bus: DefaultBus()}
	d, err := qnet.NewDriver(cfg, l)
	if err != nil {
		return nil, err
	}
	return &Agent{Driver: d, l: l}, nil
}

// MustNewAgent is NewAgent that panics on configuration errors.
func MustNewAgent(cfg qnet.Config, cycles CycleModel) *Agent {
	a, err := NewAgent(cfg, cycles)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns the paper's design name.
func (a *Agent) Name() string { return "FPGA" }

// Format returns the datapath's Qm.f format.
func (a *Agent) Format() fixed.QFormat { return a.l.q }

// Core exposes the datapath. One core serves the whole trial: a
// Reinitialize re-draws the CPU-side weights and reloads the same core,
// so its cycles, accounting, guard trips and profile cover every attempt.
func (a *Agent) Core() *Core { return a.l.core }

// Bus exposes the AXI transfer model (tests, reporting).
func (a *Agent) Bus() *Bus { return a.l.bus }

// EnableDeviceProfile arms the core's device-level cycle profiler (the
// -profile flag, via harness.Config.DeviceProfile): every datapath cycle
// is attributed along (phase × kernel × unit) and BRAM bank accesses are
// counted, surfaced as delta-flushed fpga_cycles/fpga_bram_access
// counters, occupancy/roofline gauges and cumulative device_profile
// events. Profiling changes no datapath result and no cycle count. The
// metrics only flow once an observer is attached (SetObserver), but
// arming is independent so callers can wire either first.
func (a *Agent) EnableDeviceProfile() { a.l.core.EnableProfiling() }

// DeviceProfileEnabled reports whether EnableDeviceProfile has been
// called.
func (a *Agent) DeviceProfileEnabled() bool { return a.l.core.ProfilingEnabled() }

// EndEpisode runs Algorithm 1's episode end (θ2 sync, exploration decay)
// between the episode's telemetry flushes: the numeric-health accounting
// before the sync, the device profile after it, so the sync's β reads
// land in the episode's profile.
func (a *Agent) EndEpisode(episode int) {
	a.l.flushAccounting()
	a.Driver.EndEpisode(episode)
	a.l.flushProfile()
}

// PhaseProfiles returns the per-phase device profiles for ModelMixed: PL
// phases at 125 MHz cycles, CPU phases at the software profile.
func PhaseProfiles() map[timing.Phase]timing.Profile {
	return map[timing.Phase]timing.Profile{
		timing.PhasePredictSeq:  timing.FPGA125,
		timing.PhaseSeqTrain:    timing.FPGA125,
		timing.PhaseInitTrain:   timing.CortexA9Init,
		timing.PhasePredictInit: timing.CortexA9Init,
	}
}

// learner is the fixed-point qnet.Learner. Before the load it is the
// float learner on the CPU, which draws the random α/b (with spectral
// normalization) and runs init training; the quantized θ1 is then
// DMA-loaded into the core, where it lives from then on, and θ2 is a
// quantized copy of its β (α and b are frozen, so θ1 and θ2 share them).
type learner struct {
	cfg    qnet.Config
	dims   timing.OSELMDims
	cycles CycleModel
	q      fixed.QFormat
	bus    *Bus

	cpu qnet.FloatLearner
	// core is the PL datapath holding the quantized θ1.
	core *Core
	// beta2 is the quantized target-network output weights.
	beta2  *fixed.Matrix
	loaded bool
	// busSec is the AXI parameter load of the last init training.
	busSec float64

	// in holds the encoded (state, action) input and target the seq_train
	// target.
	in, target []fixed.Fixed

	// obs receives structured events and metrics; nil disables.
	obs *obs.Emitter

	// flushed* snapshot the core's accounting accumulators, guard trips
	// and profile at the last metrics flush, so counter increments are
	// deltas of the core's cumulative (whole-trial) totals.
	flushedPredict, flushedSeq, flushedConv fixed.Acct
	flushedGuard                            int64
	flushedProf                             Prof
}

func (l *learner) Setup(cfg qnet.Config) error {
	switch {
	case cfg.Variant != qnet.VariantOSELML2Lipschitz:
		return fmt.Errorf("fpga: the core implements %s, not %s", qnet.VariantOSELML2Lipschitz, cfg.Variant)
	case !cfg.Activation.IsReLU():
		return fmt.Errorf("fpga: the core's hidden layer is ReLU, not %s", cfg.Activation.Name)
	case cfg.OneHotActions:
		return fmt.Errorf("fpga: the core takes the action as one scalar input, not one-hot")
	case cfg.StandardOutputModel:
		return fmt.Errorf("fpga: the core has one output (the simplified output model)")
	case cfg.DoubleQ:
		return fmt.Errorf("fpga: the core's targets are max over θ2, not Double Q")
	}
	l.cfg = cfg
	l.dims = cfg.NetworkDims()
	res := EstimateResources(l.dims.In, cfg.Hidden)
	if !res.Feasible {
		return fmt.Errorf("fpga: %d hidden units do not fit %s (needs %d/%d BRAM36)",
			cfg.Hidden, XC7Z020.Name, res.BRAM36, XC7Z020.BRAM36)
	}
	l.core = NewCoreQ(l.dims.In, cfg.Hidden, 1, l.cycles, l.q)
	l.in = make([]fixed.Fixed, l.dims.In)
	l.target = make([]fixed.Fixed, 1)
	return l.cpu.Setup(cfg)
}

func (l *learner) Draw(r *rng.RNG) {
	l.cpu.Draw(r)
	l.loaded = false
}

func (l *learner) Ready() bool { return l.loaded }

func (l *learner) encode(state []float64, action int) []fixed.Fixed {
	for i, v := range state {
		l.in[i] = l.q.FromFloat(v)
	}
	l.in[len(state)] = l.q.FromFloat(float64(action))
	return l.in
}

// QValues evaluates one predict invocation per action on the core — with
// θ2's β for targets — or, before the load, the float CPU model.
func (l *learner) QValues(q, state []float64, target bool) {
	if !l.loaded {
		l.cpu.QValues(q, state, target)
		return
	}
	for act := range q {
		in := l.encode(state, act)
		if target {
			q[act] = l.q.Float(l.core.PredictUsing(l.beta2, in)[0])
		} else {
			q[act] = l.q.Float(l.core.Predict(in)[0])
		}
	}
}

// PeekQValues is QValues under θ1 through PredictSilent, invisible to the
// cycle model, the accounting and the profile.
func (l *learner) PeekQValues(q, state []float64) {
	if !l.loaded {
		l.cpu.QValues(q, state, false)
		return
	}
	for act := range q {
		q[act] = l.q.Float(l.core.PredictSilent(l.encode(state, act))[0])
	}
}

// InitTrain runs the CPU-side ReOS-ELM initial training (Eq. 8) and
// DMA-loads the quantized parameters into the core.
func (l *learner) InitTrain(trans []replay.Transition, y []float64) error {
	l.busSec = 0
	if err := l.cpu.InitTrain(trans, y); err != nil {
		return fmt.Errorf("fpga: cpu init training: %w", err)
	}
	m := l.cpu.Theta1()
	l.core.LoadFloat(m.Alpha, m.Bias, m.Beta, m.P)
	l.beta2 = fixed.FromDenseQ(m.Beta, l.q, nil)
	l.busSec = l.bus.LoadCoreParameters(l.core)
	l.loaded = true
	return nil
}

// SeqTrain runs the seq_train module. The probe reads θ1's Q(s, a)
// through PredictSilent, invisible to the cycle model and the accounting.
func (l *learner) SeqTrain(t replay.Transition, y float64, probe bool) (float64, error) {
	in := l.encode(t.State, t.Action)
	pred := math.NaN()
	if probe {
		pred = l.q.Float(l.core.PredictSilent(in)[0])
	}
	// With both tracing and profiling on, snapshot the profile around
	// SeqTrain so the update's per-kernel breakdown can be replayed as
	// spans on a dedicated modelled-device track.
	kernelSpans := l.obs.Tracer() != nil && l.core.ProfilingEnabled()
	var before Prof
	if kernelSpans {
		before = *l.core.Prof()
	}
	l.target[0] = l.q.FromFloat(y)
	l.core.SeqTrain(in, l.target)
	if kernelSpans {
		l.emitKernelSpans(before)
	}
	return pred, nil
}

// SyncTarget clones β into θ2 once the core is loaded; before the load θ1
// is untrained and θ2 equals it.
func (l *learner) SyncTarget() bool {
	if !l.loaded {
		return false
	}
	l.beta2 = l.core.Beta.Clone()
	l.core.NoteTheta2Sync()
	return true
}

// Health reads the core's β and P. β has one column, so σmax(β) is its
// Frobenius norm.
func (l *learner) Health() oselm.NumericHealth {
	b := l.core.Beta.FrobeniusNorm()
	p := l.core.P
	return oselm.NumericHealth{
		BetaNorm:     b,
		BetaSigmaMax: b,
		PTrace:       p.Trace() / float64(l.cfg.Hidden),
		PCondProxy:   oselm.DiagCondProxy(p.Rows(), func(i int) float64 { return l.q.Float(p.At(i, i)) }),
	}
}

func (l *learner) Mark() int64 { return l.core.Cycles() }

// Charge books PL phases in the core's cycles since mark, plus one AXI
// handshake per predict invocation (ActionCount per selection); the CPU
// phases in flops, init training with the AXI parameter load.
func (l *learner) Charge(c *timing.Counters, p timing.Phase, mark int64, n int, data map[string]float64) float64 {
	actions := int64(l.cfg.ActionCount)
	switch p {
	case timing.PhaseInitTrain:
		work := float64(n*l.cfg.ActionCount)*l.dims.PredictFlops() + l.dims.InitTrainFlops(n)
		c.Add(p, work)
		// The bulk load rides on the CPU side of the init_train phase; its
		// duration converts to that profile's work units so the breakdown
		// stays single-unit per phase.
		bus := l.busSec * timing.CortexA9Init.WorkUnitsPerSec
		c.AddN(p, 0, bus)
		if data != nil {
			data["bus_load_ms"] = l.busSec * 1e3
		}
		return timing.CortexA9Init.Seconds(p, 1, work+bus)
	case timing.PhasePredictInit:
		work := float64(actions) * l.dims.PredictFlops()
		c.AddN(p, actions, work)
		return timing.CortexA9Init.Seconds(p, actions, work)
	case timing.PhaseSeqTrain:
		cycles := float64(l.core.Cycles() - mark)
		c.Add(p, cycles)
		return timing.FPGA125.Seconds(p, 1, cycles)
	}
	cycles := float64(l.core.Cycles() - mark)
	c.AddN(p, actions, cycles)
	return timing.FPGA125.Seconds(p, actions, cycles)
}

// SetObserver installs the emitter and, when non-nil, turns on the core's
// per-module numeric-health accounting — free to the modelled hardware (no
// cycle or result change) but a few integer adds per op, so it follows
// the emitter's state.
func (l *learner) SetObserver(e *obs.Emitter) {
	l.obs = e
	if e != nil && !l.core.AccountingEnabled() {
		l.core.EnableAccounting()
	}
}

// Flush publishes the load's conversion accounting at once — a NaN or
// rail hit at the DMA boundary should alert now, not at the end of the
// episode — and the device profile with it, so the load phase's BRAM
// writes surface right away too.
func (l *learner) Flush() {
	l.flushAccounting()
	l.flushProfile()
}

// emitKernelSpans records one span per seq_train kernel that charged
// cycles since the profile snapshot, on the dedicated "device-kernels"
// trace group: the exporter lays modelled spans end-to-end per group, so
// the track reads as the paper-style cycle breakdown of each update.
// Kernel spans carry pure datapath time (cycles at 125 MHz, no AXI
// overhead — the parent seq_train span already models the handshake).
func (l *learner) emitKernelSpans(before Prof) {
	tr := l.obs.Tracer()
	if tr == nil {
		return
	}
	cur := l.core.Prof()
	for k := ProfKernel(0); k < NumProfKernels; k++ {
		var cyc int64
		for u := ProfUnit(0); u < NumProfUnits; u++ {
			cyc += cur.Cycles(ProfSeqTrain, k, u) - before.Cycles(ProfSeqTrain, k, u)
		}
		if cyc > 0 {
			ks := tr.StartSpanGroup("kern:"+k.String(), "device-kernels")
			ks.EndModelled(timing.FPGA125.WorkSeconds(float64(cyc)))
		}
	}
}

// flushAccounting publishes the core's numeric-health accounting to the
// metrics registry: counter increments are deltas since the last flush
// (the accumulators are cumulative), gauges carry the cumulative
// quantization error and run-so-far saturation rates the watchdog
// evaluates.
func (l *learner) flushAccounting() {
	if l.obs == nil || !l.core.AccountingEnabled() {
		return
	}
	pa, sa, ca := *l.core.PredictAcct(), *l.core.SeqTrainAcct(), *l.core.ConvAcct()
	l.obs.Inc(obs.MetricFixedOpsPredict, pa.Ops-l.flushedPredict.Ops)
	l.obs.Inc(obs.MetricFixedSaturationsPredict, pa.Saturations-l.flushedPredict.Saturations)
	l.obs.Inc(obs.MetricFixedOpsSeqTrain, sa.Ops-l.flushedSeq.Ops)
	l.obs.Inc(obs.MetricFixedSaturationsSeqTrain, sa.Saturations-l.flushedSeq.Saturations)
	l.obs.Inc(obs.MetricFixedOpsLoad, ca.Ops-l.flushedConv.Ops)
	l.obs.Inc(obs.MetricFixedSaturationsLoad, ca.Saturations-l.flushedConv.Saturations)
	if d := (pa.NaNs - l.flushedPredict.NaNs) + (sa.NaNs - l.flushedSeq.NaNs) +
		(ca.NaNs - l.flushedConv.NaNs); d > 0 {
		l.obs.Inc(obs.MetricFixedNaNs, d)
	}
	l.obs.SetGauge(obs.GaugeFixedQuantErrPredict, pa.QuantErrAbs)
	l.obs.SetGauge(obs.GaugeFixedQuantErrSeqTrain, sa.QuantErrAbs)
	l.obs.SetGauge(obs.GaugeFixedQuantErrLoad, ca.QuantErrAbs)
	l.obs.SetGauge(obs.GaugeFixedSaturationRatePredict, pa.SaturationRate())
	l.obs.SetGauge(obs.GaugeFixedSaturationRateSeqTrain, sa.SaturationRate())
	if trips := l.core.DenomGuardTrips(); trips > l.flushedGuard {
		l.obs.Inc(obs.MetricFixedDenomGuard, trips-l.flushedGuard)
		if l.flushedGuard == 0 {
			// First trip of the run: a rejected Eq. 5 update means P was
			// saturated or poisoned — surface it as a numeric alert, once,
			// the same shape the divergence watchdog emits.
			l.obs.With(map[string]string{
				"rule":   "seq_train_denom_guard",
				"metric": obs.MetricFixedDenomGuard,
			}).Emit(obs.EventNumericAlert, 0, map[string]float64{
				"value":     float64(trips),
				"threshold": l.q.Float(l.core.denomFloor),
			})
		}
		l.flushedGuard = trips
	}
	l.flushedPredict, l.flushedSeq, l.flushedConv = pa, sa, ca
}

// flushProfile publishes the device profiler's attribution to the
// metrics registry (counter increments are deltas since the last flush,
// built with obs.Labeled keys the export layer renders as Prometheus
// labels), refreshes the cumulative occupancy/roofline gauges, and emits
// one cumulative device_profile event — the record cmd/runlog's profile
// report is built from. No-op when nothing changed since the last flush.
func (l *learner) flushProfile() {
	if l.obs == nil || !l.core.ProfilingEnabled() {
		return
	}
	cur := *l.core.Prof()
	if cur == l.flushedProf {
		return
	}
	data := map[string]float64{"total_cycles": float64(cur.TotalCycles())}
	for ph := ProfPhase(0); ph < NumProfPhases; ph++ {
		for k := ProfKernel(0); k < NumProfKernels; k++ {
			for u := ProfUnit(0); u < NumProfUnits; u++ {
				v := cur.Cycles(ph, k, u)
				if v != 0 {
					data["cycles_"+ph.String()+"_"+k.String()+"_"+u.String()] = float64(v)
				}
				if d := v - l.flushedProf.Cycles(ph, k, u); d != 0 {
					l.obs.Inc(obs.Labeled(obs.MetricFPGACycles,
						"phase", ph.String(), "kernel", k.String(), "unit", u.String()), d)
				}
			}
		}
	}
	for bank := Bank(0); bank < NumBanks; bank++ {
		for op := BankOp(0); op < NumBankOps; op++ {
			v := cur.BRAM(bank, op)
			if v != 0 {
				data["bram_"+bank.String()+"_"+op.String()] = float64(v)
			}
			if d := v - l.flushedProf.BRAM(bank, op); d != 0 {
				l.obs.Inc(obs.Labeled(obs.MetricFPGABRAMAccess,
					"bank", bank.String(), "op", op.String()), d)
			}
		}
	}
	if cur.TotalCycles() > 0 {
		for u := UnitAdd; u <= UnitInvoke; u++ {
			l.obs.SetGauge(obs.Labeled(obs.GaugeFPGAUnitBusy, "unit", u.String()),
				cur.UnitBusyFraction(u))
			if n := cur.UnitOps(u); n > 0 {
				data["ops_"+u.String()] = float64(n)
			}
		}
		l.obs.SetGauge(obs.GaugeFPGAOpsPerCycle, cur.OpsPerCycle())
	}
	l.obs.Emit(obs.EventDeviceProfile, 0, data)
	l.flushedProf = cur
}
