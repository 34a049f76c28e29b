package fpga

import (
	"testing"

	"oselmrl/internal/fixed"
)

// profProbe returns a deterministic input vector on q's grid.
func profProbe(q fixed.QFormat, n int) []fixed.Fixed {
	x := make([]fixed.Fixed, n)
	for i := range x {
		x[i] = q.FromFloat(float64(i%5-2) / 8)
	}
	return x
}

// TestScheduleMatchesExecutedWork checks the cycle schedule against the
// work the kernel loops actually execute: for every cycle model × QFormat
// × hidden size, the add+mul+div ops charged for one predict, one accepted
// seq_train and one guard-rejected seq_train must equal the ops the
// module's accounting Acct counted. Under a unit-latency model every op
// costs one cycle, so there the charged cycles must equal that count too.
func TestScheduleMatchesExecutedWork(t *testing.T) {
	models := []struct {
		name  string
		model CycleModel
	}{
		{"default", DefaultCycleModel()},
		{"pipelined", PipelinedCycleModel()},
		{"unit", CycleModel{Add: 1, Mul: 1, Div: 1}},
	}
	for _, m := range models {
		for _, q := range []fixed.QFormat{fixed.Q16, fixed.Q20, fixed.Q24} {
			for _, hidden := range []int{32, 64, 128, 192} {
				c := NewCoreQ(5, hidden, 1, m.model, q)
				c.EnableAccounting()
				c.EnableProfiling()
				for j := range c.Bias {
					c.Bias[j] = q.One() // h = 1, so a poisoned P drives the denominator negative
				}
				x := profProbe(q, 5)
				tgt := []fixed.Fixed{q.FromFloat(0.25)}
				check := func(what string, acct *fixed.Acct, run func()) {
					t.Helper()
					ops, prof, cyc := acct.Ops, *c.Prof(), c.Cycles()
					run()
					executed := acct.Ops - ops
					d := c.Prof().Delta(prof)
					if got := d.ArithOps(); got != executed {
						t.Errorf("%s/%v/h=%d: %s charged %d ops, executed %d",
							m.name, q, hidden, what, got, executed)
					}
					if got := c.Cycles() - cyc; m.name == "unit" && got != executed {
						t.Errorf("%s/%v/h=%d: %s charged %d unit-latency cycles, executed %d ops",
							m.name, q, hidden, what, got, executed)
					}
				}
				check("predict", c.PredictAcct(), func() { c.Predict(x) })
				check("seq_train", c.SeqTrainAcct(), func() { c.SeqTrain(x, tgt) })
				if c.DenomGuardTrips() != 0 {
					t.Fatalf("%s/%v/h=%d: probe update tripped the guard", m.name, q, hidden)
				}
				for i := 0; i < hidden; i++ {
					c.P.Set(i, i, -q.One())
				}
				check("rejected seq_train", c.SeqTrainAcct(), func() { c.SeqTrain(x, tgt) })
				if c.DenomGuardTrips() != 1 {
					t.Fatalf("%s/%v/h=%d: poisoned P did not trip the guard", m.name, q, hidden)
				}
			}
		}
	}
}

// TestProfAttributionOnTrainedCore repeats the executed-work check on a
// realistically loaded core (trained float model, mixed predict/seq_train
// traffic): the ops charged across the whole run equal the ops executed.
func TestProfAttributionOnTrainedCore(t *testing.T) {
	m := trainedFloatModel(t, 32)
	c := loadedCore(t, m)
	c.EnableProfiling()
	c.EnableAccounting()
	for i := 0; i < 50; i++ {
		x := profProbe(fixed.Q20, 5)
		x[i%5] = fixed.FromFloat(float64(i)/64 - 0.4)
		c.Predict(x)
		c.Predict(x)
		c.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.5)})
	}
	if got, executed := c.Prof().ArithOps(), c.PredictAcct().Ops+c.SeqTrainAcct().Ops; got != executed {
		t.Errorf("charged %d ops, executed %d", got, executed)
	}
	if trips := c.DenomGuardTrips(); trips != 0 {
		t.Fatalf("healthy trained core tripped the guard %d times", trips)
	}
}

// TestGuardBailAttribution: a guard-rejected seq_train charges exactly the
// cycles that ran — the FSM bails after the denominator accumulation, so
// the gain kernel holds only the denom MACs (no divide, no g scaling) and
// the downdate/residual/beta_update kernels stay empty. ΣProf == Cycles()
// must hold for rejected updates too.
func TestGuardBailAttribution(t *testing.T) {
	core := corruptGoldenP()
	core.EnableProfiling()
	core.ResetCycles()
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	core.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)})
	if core.DenomGuardTrips() != 1 {
		t.Fatalf("DenomGuardTrips = %d, want 1", core.DenomGuardTrips())
	}
	p := core.Prof()
	if got, cyc := p.TotalCycles(), core.Cycles(); got != cyc {
		t.Errorf("rejected update: ΣProf = %d, Cycles() = %d", got, cyc)
	}
	model := DefaultCycleModel()
	wantGain := int64(4) * (model.Add + model.Mul) // denom MACs only (hidden=4)
	if got := p.KernelCycles(ProfSeqTrain, KernGain); got != wantGain {
		t.Errorf("rejected update: gain kernel %d cycles, want %d (denom only)", got, wantGain)
	}
	if div := p.Cycles(ProfSeqTrain, KernGain, UnitDiv); div != 0 {
		t.Errorf("rejected update charged %d divider cycles; the guard fires before the divide", div)
	}
	for _, k := range []ProfKernel{KernDowndate, KernResidual, KernBetaUpdate} {
		if got := p.KernelCycles(ProfSeqTrain, k); got != 0 {
			t.Errorf("rejected update charged %d cycles to %v; the FSM bailed before it", got, k)
		}
	}
}

// TestPredictSilentProfile: the silent probe must leave BOTH the cycle
// counter and the attribution profile untouched — an instrumentation-only
// read is invisible to the modelled device.
func TestPredictSilentProfile(t *testing.T) {
	core := goldenCore()
	core.EnableProfiling()
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	core.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)}) // nonzero profile first
	profBefore := *core.Prof()
	cyclesBefore := core.Cycles()

	// Predict's result is core scratch; keep a copy to compare.
	silent := append([]fixed.Fixed(nil), core.PredictSilent(x)...)

	if core.Cycles() != cyclesBefore {
		t.Errorf("PredictSilent moved the cycle counter: %d -> %d", cyclesBefore, core.Cycles())
	}
	if *core.Prof() != profBefore {
		t.Error("PredictSilent changed the attribution profile")
	}
	if !core.ProfilingEnabled() {
		t.Error("PredictSilent left the profiler detached")
	}
	// Same datapath result as the counted path.
	counted := core.Predict(x)
	for i := range counted {
		if silent[i] != counted[i] {
			t.Errorf("silent[%d] = %v, counted %v", i, silent[i], counted[i])
		}
	}
}

// TestResetCyclesResetsProfile: counter and attribution reset together, so
// the ΣProf == Cycles invariant survives a reset mid-run.
func TestResetCyclesResetsProfile(t *testing.T) {
	core := goldenCore()
	core.EnableProfiling()
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	core.Predict(x)
	core.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)})
	if core.Prof().TotalCycles() == 0 {
		t.Fatal("profile empty before reset")
	}
	core.ResetCycles()
	if core.Cycles() != 0 {
		t.Errorf("Cycles() = %d after reset", core.Cycles())
	}
	if got := core.Prof().TotalCycles(); got != 0 {
		t.Errorf("profile holds %d cycles after ResetCycles", got)
	}
	core.Predict(x)
	if got, cyc := core.Prof().TotalCycles(), core.Cycles(); got != cyc {
		t.Errorf("post-reset: ΣProf = %d, Cycles() = %d", got, cyc)
	}
}

// TestProfilingDoesNotPerturbDatapath: enabling the profiler changes no
// datapath result and no cycle count — it only observes.
func TestProfilingDoesNotPerturbDatapath(t *testing.T) {
	plain := goldenCore()
	profiled := goldenCore()
	profiled.EnableProfiling()
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	tgt := []fixed.Fixed{fixed.FromFloat(0.9)}
	for i := 0; i < 20; i++ {
		a := plain.Predict(x)
		b := profiled.Predict(x)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("step %d: predict diverged: %v vs %v", i, a[j], b[j])
			}
		}
		plain.SeqTrain(x, tgt)
		profiled.SeqTrain(x, tgt)
	}
	if plain.Cycles() != profiled.Cycles() {
		t.Errorf("cycle counts diverged: plain %d, profiled %d", plain.Cycles(), profiled.Cycles())
	}
	for j := 0; j < 4; j++ {
		if plain.Beta.At(j, 0) != profiled.Beta.At(j, 0) {
			t.Errorf("β[%d] diverged under profiling", j)
		}
	}
}

// TestProfBRAMCounts pins the per-bank access model for one predict and
// one seq_train on a 5-input, 8-hidden, 1-output core.
func TestProfBRAMCounts(t *testing.T) {
	const in, hid, out = 5, 8, 1
	c := NewCore(in, hid, out, DefaultCycleModel())
	c.EnableProfiling()
	x := profProbe(fixed.Q20, in)
	c.Predict(x)
	c.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.25)})
	if c.DenomGuardTrips() != 0 {
		t.Fatal("probe update tripped the guard")
	}

	// Two hidden passes (predict + seq_train) plus each module's own traffic.
	want := map[Bank]map[BankOp]int64{
		BankX:     {BankWrite: 2 * in, BankRead: 2 * in * hid},
		BankAlpha: {BankRead: 2 * in * hid},
		BankBias:  {BankRead: 2 * hid},
		BankH:     {BankWrite: 2 * hid, BankRead: out*hid + hid*hid + hid + out*hid},
		BankP:     {BankRead: 2 * hid * hid, BankWrite: hid * hid},
		BankPt:    {BankWrite: hid * hid},
		BankPH:    {BankWrite: hid, BankRead: hid + hid + hid*hid},
		BankBeta:  {BankRead: out*hid + 2*out*hid, BankWrite: out * hid},
	}
	for bank := Bank(0); bank < NumBanks; bank++ {
		for op := BankOp(0); op < NumBankOps; op++ {
			if got := c.Prof().BRAM(bank, op); got != want[bank][op] {
				t.Errorf("bram %v %v = %d, want %d", bank, op, got, want[bank][op])
			}
		}
	}
}

// TestLoadFloatBRAMWrites: the DMA load charges zero cycles but records
// the parameter-load writes, including the transposed P copy.
func TestLoadFloatBRAMWrites(t *testing.T) {
	m := trainedFloatModel(t, 16)
	c := NewCore(5, 16, 1, DefaultCycleModel())
	c.EnableProfiling()
	c.LoadFloat(m.Alpha, m.Bias, m.Beta, m.P)
	if c.Cycles() != 0 {
		t.Errorf("LoadFloat charged %d datapath cycles", c.Cycles())
	}
	if got := c.Prof().TotalCycles(); got != 0 {
		t.Errorf("LoadFloat attributed %d cycles", got)
	}
	for _, tc := range []struct {
		bank Bank
		want int64
	}{
		{BankAlpha, 5 * 16}, {BankBias, 16}, {BankBeta, 16}, {BankP, 16 * 16}, {BankPt, 16 * 16},
	} {
		if got := c.Prof().BRAM(tc.bank, BankWrite); got != tc.want {
			t.Errorf("load writes to %v = %d, want %d", tc.bank, got, tc.want)
		}
	}
}

// TestNoteTheta2Sync records the target-sync β reads under the
// theta2_sync phase without touching the cycle counter.
func TestNoteTheta2Sync(t *testing.T) {
	core := goldenCore()
	core.EnableProfiling()
	before := core.Cycles()
	core.NoteTheta2Sync()
	if core.Cycles() != before {
		t.Error("NoteTheta2Sync charged datapath cycles")
	}
	if got := core.Prof().BRAM(BankBeta, BankRead); got != 4 { // hidden=4, out=1
		t.Errorf("theta2 sync β reads = %d, want 4", got)
	}
}

// TestDisabledProfilerAllocs: SeqTrain allocates nothing, with profiling
// off or on (the benchmark pair pins cycles-level overhead).
func TestDisabledProfilerAllocs(t *testing.T) {
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	tgt := []fixed.Fixed{fixed.FromFloat(0.1)}

	off := goldenCore()
	allocsOff := testing.AllocsPerRun(100, func() { off.SeqTrain(x, tgt) })
	on := goldenCore()
	on.EnableProfiling()
	allocsOn := testing.AllocsPerRun(100, func() { on.SeqTrain(x, tgt) })

	// SeqTrain allocates nothing; the profiler must add nothing in either
	// state.
	if allocsOff != 0 || allocsOn != 0 {
		t.Errorf("SeqTrain allocates %v objects/op with profiling off, %v on; want 0", allocsOff, allocsOn)
	}
}

// BenchmarkSeqTrainProfilerOff/On: the pair the perf gate watches — the
// profiler-off path must be indistinguishable from the pre-profiler core,
// and the on path's overhead stays bounded (a few counter increments per
// kernel plus two stores per op).
func benchmarkSeqTrainProf(b *testing.B, profile bool) {
	c := NewCore(5, 32, 1, DefaultCycleModel())
	if profile {
		c.EnableProfiling()
	}
	x := profProbe(fixed.Q20, 5)
	tgt := []fixed.Fixed{fixed.FromFloat(0.25)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SeqTrain(x, tgt)
	}
}

func BenchmarkSeqTrainProfilerOff(b *testing.B) { benchmarkSeqTrainProf(b, false) }
func BenchmarkSeqTrainProfilerOn(b *testing.B)  { benchmarkSeqTrainProf(b, true) }
