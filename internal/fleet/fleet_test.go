package fleet_test

import (
	"bytes"
	"math"
	"testing"

	"oselmrl/internal/fixed"
	"oselmrl/internal/fleet"
	"oselmrl/internal/fpga"
	"oselmrl/internal/timing"
)

// TestDefaultDispatchMatchesTimingProfile pins the simulator's default
// dispatch cost to the sequential timing model's AXI handshake — the
// equality that makes a 1-core fleet reproduce Profile.Seconds exactly.
func TestDefaultDispatchMatchesTimingProfile(t *testing.T) {
	want := int64(math.Round(timing.FPGA125.CallOverheadSec * fleet.DefaultClockHz))
	if fleet.DefaultDispatchCycles != want {
		t.Fatalf("DefaultDispatchCycles = %d, timing.FPGA125 handshake = %d cycles",
			fleet.DefaultDispatchCycles, want)
	}
	if fleet.DefaultClockHz != timing.FPGA125.WorkUnitsPerSec {
		t.Fatalf("DefaultClockHz = %g, timing.FPGA125 rate = %g",
			fleet.DefaultClockHz, timing.FPGA125.WorkUnitsPerSec)
	}
}

// TestFleetN1MatchesSequentialCore is the N=1 property test: for every
// QFormat × hidden size × cycle model, a 1-core fleet running the RL
// inner loop charges exactly the cycles the executed datapath counts —
// Σ fleet modelled cycles == Core.Cycles() == analytic kernel cycles —
// and its makespan is that plus one dispatch handshake per kernel
// (extending the Prof attribution invariant across the fleet layer).
func TestFleetN1MatchesSequentialCore(t *testing.T) {
	models := map[string]fpga.CycleModel{
		"default":   fpga.DefaultCycleModel(),
		"pipelined": fpga.PipelinedCycleModel(),
	}
	qformats := make([]fixed.QFormat, 0, 3)
	for _, s := range []string{"Q16", "Q20", "Q24"} {
		q, err := fixed.ParseQFormat(s)
		if err != nil {
			t.Fatal(err)
		}
		qformats = append(qformats, q)
	}
	const steps = 6
	for name, model := range models {
		for _, q := range qformats {
			for _, hidden := range []int{32, 64, 128, 192} {
				core := fpga.NewCoreQ(5, hidden, 1, model, q)

				// The dimension-only table agrees with the core's at every
				// design point.
				costs := core.KernelCosts()
				if got := fpga.AnalyticKernelCosts(5, hidden, 1, model); got != costs {
					t.Fatalf("%s/%s/h=%d: AnalyticKernelCosts %v != core table %v",
						name, q, hidden, got, costs)
				}

				// Execute the inner loop on the real datapath.
				x := make([]fixed.Fixed, 5)
				target := []fixed.Fixed{q.Normalized().FromFloat(0.25)}
				for s := 0; s < steps; s++ {
					core.Predict(x)
					core.Predict(x)
					core.SeqTrain(x, target)
				}
				executed := core.Cycles()

				// Simulate the same program on a 1-core fleet.
				w := fleet.PopulationTraining(1, steps, costs)
				r := fleet.Simulate(w, fleet.Config{Cores: 1})
				if r.TotalJobCycles != executed {
					t.Fatalf("%s/%s/h=%d: fleet modelled %d cycles, core executed %d",
						name, q, hidden, r.TotalJobCycles, executed)
				}
				jobs := int64(w.TotalJobs())
				wantMakespan := executed + jobs*fleet.DefaultDispatchCycles
				if r.MakespanCycles != wantMakespan {
					t.Fatalf("%s/%s/h=%d: makespan %d, want %d (executed + %d dispatches)",
						name, q, hidden, r.MakespanCycles, wantMakespan, jobs)
				}
				if got := r.Speedup(); got != 1 {
					t.Fatalf("%s/%s/h=%d: 1-core speedup = %v, want exactly 1", name, q, hidden, got)
				}

				// The merged per-core counters reproduce the sequential
				// timing model: same calls, same cycle work, and modelled
				// seconds matching Profile.Seconds per PL phase.
				merged := r.MergedCounters()
				if merged.Calls(timing.PhasePredictSeq) != 2*steps || merged.Calls(timing.PhaseSeqTrain) != steps {
					t.Fatalf("%s/%s/h=%d: merged calls %d/%d, want %d/%d", name, q, hidden,
						merged.Calls(timing.PhasePredictSeq), merged.Calls(timing.PhaseSeqTrain), 2*steps, steps)
				}
				var profSeconds float64
				for _, p := range []timing.Phase{timing.PhasePredictSeq, timing.PhaseSeqTrain} {
					profSeconds += timing.FPGA125.Seconds(p, merged.Calls(p), merged.Work(p))
				}
				if rel := math.Abs(profSeconds-r.MakespanSeconds()) / profSeconds; rel > 1e-12 {
					t.Fatalf("%s/%s/h=%d: fleet makespan %.12gs vs Profile.Seconds %.12gs (rel %g)",
						name, q, hidden, r.MakespanSeconds(), profSeconds, rel)
				}
				bd := r.Breakdown()
				if rel := math.Abs(bd.Total()-r.MakespanSeconds()) / profSeconds; rel > 1e-12 {
					t.Fatalf("%s/%s/h=%d: 1-core Breakdown total %.12g != makespan %.12g",
						name, q, hidden, bd.Total(), r.MakespanSeconds())
				}
			}
		}
	}
}

// TestFleetDeterminism runs the same config twice and demands
// byte-identical event logs and speedup tables (the documented
// (time, seq) tie-break makes this exact, not statistical).
func TestFleetDeterminism(t *testing.T) {
	costs := fpga.AnalyticKernelCosts(5, 64, 1, fpga.DefaultCycleModel())
	w := fleet.PopulationTraining(5, 7, costs)
	// Unequal chains exercise equal-timestamp ties from staggered
	// completions.
	w.Members[2] = w.Members[2][:9]
	w.Members[4] = append(fleet.Chain{{Kernel: fpga.KernelPredict, Cycles: 123}}, w.Members[4]...)

	run := func() ([]byte, []byte) {
		r := fleet.Simulate(w, fleet.Config{Cores: 3})
		curve := fleet.SpeedupCurve(w, fleet.Config{}, 4)
		return r.LogText(), []byte(fleet.FormatSpeedupTable(curve))
	}
	log1, tab1 := run()
	log2, tab2 := run()
	if !bytes.Equal(log1, log2) {
		t.Fatalf("event logs differ between identical runs:\n--- run1 ---\n%s--- run2 ---\n%s", log1, log2)
	}
	if !bytes.Equal(tab1, tab2) {
		t.Fatalf("speedup tables differ between identical runs:\n%s\nvs\n%s", tab1, tab2)
	}
	if len(log1) == 0 {
		t.Fatal("empty event log")
	}
}

// TestSpeedupCurveMonotoneAndSaturates checks the headline artifact's
// shape for both workloads: speedup starts at exactly 1, never
// decreases as cores are added, stays below linear, and saturates at
// the serialized dispatcher's Amdahl bound.
func TestSpeedupCurveMonotoneAndSaturates(t *testing.T) {
	costs := fpga.AnalyticKernelCosts(5, 64, 1, fpga.DefaultCycleModel())
	for _, tc := range []struct {
		name string
		w    fleet.Workload
	}{
		{"population", fleet.PopulationTraining(8, 10, costs)},
		{"inference", fleet.BatchedInference(64, costs)},
	} {
		curve := fleet.SpeedupCurve(tc.w, fleet.Config{}, 8)
		if curve[0].Speedup != 1 {
			t.Fatalf("%s: speedup at 1 core = %v, want exactly 1", tc.name, curve[0].Speedup)
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].Speedup < curve[i-1].Speedup {
				t.Fatalf("%s: speedup not monotone: cores %d -> %d went %.4f -> %.4f",
					tc.name, curve[i-1].Cores, curve[i].Cores, curve[i-1].Speedup, curve[i].Speedup)
			}
			if curve[i].Speedup >= float64(curve[i].Cores) {
				t.Fatalf("%s: speedup %.4f at %d cores is not sublinear (free dispatcher?)",
					tc.name, curve[i].Speedup, curve[i].Cores)
			}
		}
		// Amdahl bound: the dispatcher serializes jobs ×
		// DefaultDispatchCycles, so makespan >= that and speedup <=
		// total/(serial fraction).
		totalJobs := int64(tc.w.TotalJobs())
		serial := totalJobs * fleet.DefaultDispatchCycles
		bound := float64(tc.w.TotalCycles()+serial) / float64(serial)
		last := curve[len(curve)-1]
		if last.Speedup > bound+1e-9 {
			t.Fatalf("%s: speedup %.4f exceeds dispatcher Amdahl bound %.4f", tc.name, last.Speedup, bound)
		}
	}

	// The single-predict inference workload (400-cycle jobs behind a
	// 1000-cycle dispatch) saturates early: adding cores beyond a few
	// changes nothing, so the curve must flatten completely.
	costs32 := fpga.AnalyticKernelCosts(5, 32, 1, fpga.DefaultCycleModel())
	curve := fleet.SpeedupCurve(fleet.BatchedInference(64, costs32), fleet.Config{}, 8)
	if diff := curve[7].Speedup - curve[3].Speedup; diff > 1e-9 {
		t.Fatalf("inference curve did not saturate: speedup(8)-speedup(4) = %g", diff)
	}
	if curve[7].Speedup <= 1 {
		t.Fatal("inference curve shows no speedup at all")
	}
}

// TestSimulateAccounting cross-checks the bookkeeping identities every
// simulation must satisfy.
func TestSimulateAccounting(t *testing.T) {
	costs := fpga.AnalyticKernelCosts(5, 32, 1, fpga.DefaultCycleModel())
	w := fleet.PopulationTraining(6, 5, costs)
	r := fleet.Simulate(w, fleet.Config{Cores: 4})

	var busy, jobs int64
	for i := range r.CoreBusyCycles {
		busy += r.CoreBusyCycles[i]
		jobs += r.CoreJobs[i]
		if f := r.BusyFraction(i); f < 0 || f > 1 {
			t.Fatalf("core %d busy fraction %v out of [0,1]", i, f)
		}
	}
	if busy != r.TotalJobCycles || r.TotalJobCycles != w.TotalCycles() {
		t.Fatalf("busy cycles %d / total %d / workload %d disagree", busy, r.TotalJobCycles, w.TotalCycles())
	}
	if jobs != int64(w.TotalJobs()) || r.Dispatches != jobs {
		t.Fatalf("jobs %d, dispatches %d, workload %d disagree", jobs, r.Dispatches, w.TotalJobs())
	}
	if r.MaxQueueDepth < 1 || r.MaxQueueDepth > len(w.Members) {
		t.Fatalf("implausible max queue depth %d", r.MaxQueueDepth)
	}
	merged := r.MergedCounters()
	wantPred := int64(6 * 5 * 2)
	if merged.Calls(timing.PhasePredictSeq) != wantPred || merged.Calls(timing.PhaseSeqTrain) != 30 {
		t.Fatalf("merged counters calls %d/%d, want %d/30",
			merged.Calls(timing.PhasePredictSeq), merged.Calls(timing.PhaseSeqTrain), wantPred)
	}
}

// TestProjectHeadroomN1Agreement is the fpgares regression test: the
// headroom projection's per-core rate must equal the direct sequential
// computation — executed datapath cycles plus one handshake per kernel
// — not the occupancy-only estimate the old report projected from.
func TestProjectHeadroomN1Agreement(t *testing.T) {
	for _, hidden := range []int{32, 64} {
		p := fleet.ProjectHeadroom(5, hidden, fleet.Config{})
		if p.Cores < 1 {
			t.Fatalf("h=%d: no cores fit", hidden)
		}

		// Direct path: execute the probe's inner loop on a real core.
		core := fpga.NewCore(5, hidden, 1, fpga.DefaultCycleModel())
		x := make([]fixed.Fixed, 5)
		target := []fixed.Fixed{core.Format().FromFloat(0.25)}
		const steps = 8
		for s := 0; s < steps; s++ {
			core.Predict(x)
			core.Predict(x)
			core.SeqTrain(x, target)
		}
		cycles := core.Cycles() + 3*steps*fleet.DefaultDispatchCycles
		direct := float64(steps) * fleet.DefaultClockHz / float64(cycles)
		if rel := math.Abs(p.UpdatesPerSecCore-direct) / direct; rel > 1e-12 {
			t.Fatalf("h=%d: projection %.6f upd/s vs direct %.6f upd/s (rel %g)",
				hidden, p.UpdatesPerSecCore, direct, rel)
		}
		if p.UpdatesPerSecDevice < p.UpdatesPerSecCore {
			t.Fatalf("h=%d: device rate %.1f below single-core rate %.1f",
				hidden, p.UpdatesPerSecDevice, p.UpdatesPerSecCore)
		}
		if p.BusyMean <= 0 || p.BusyMean > 1 {
			t.Fatalf("h=%d: busy mean %v out of (0,1]", hidden, p.BusyMean)
		}
	}
}

// TestCoresPerDeviceCapsCurve ensures the resource estimator bounds the
// sweep: the cap is positive at every feasible Table 3 point and zero
// for the 256-unit design that does not fit.
func TestCoresPerDeviceCapsCurve(t *testing.T) {
	for _, hidden := range []int{32, 64, 128, 192} {
		u := fpga.EstimateResources(5, hidden)
		cores, binding := fpga.CoresPerDevice(u, fpga.XC7Z020)
		if cores < 1 || binding == "" {
			t.Fatalf("h=%d: cores=%d binding=%q", hidden, cores, binding)
		}
	}
	u := fpga.EstimateResources(5, 256)
	if u.Feasible {
		t.Fatal("256-unit design should not fit (paper Table 3)")
	}
}
