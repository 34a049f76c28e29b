package fpga

import "oselmrl/internal/timing"

// Kernel identifies one schedulable module invocation at the core's
// kernel boundary — the unit of work a dispatcher hands to a core. The
// fleet simulator (internal/fleet) schedules Kernels and charges their
// cycle cost without re-executing the fixed-point arithmetic; the cost
// is summed from the same schedule Predict and SeqTrain charge when they
// execute, so simulated fleet time and executed single-core time agree
// cycle-exactly.
//
// Kernel is the module-level boundary (one AXI invocation); ProfKernel
// is the finer intra-module attribution (hidden_pass, gain, ...) inside
// one Kernel.
type Kernel uint8

// The two PL-resident module invocations of the paper's core (§4.2).
const (
	// KernelPredict is one predict-module invocation: y = h·β.
	KernelPredict Kernel = iota
	// KernelSeqTrain is one seq_train-module invocation: the rank-1
	// OS-ELM update (Eq. 5, k = 1).
	KernelSeqTrain
	// NumKernels sizes KernelCosts.
	NumKernels = 2
)

// String returns the paper's module name.
func (k Kernel) String() string {
	switch k {
	case KernelPredict:
		return "predict"
	case KernelSeqTrain:
		return "seq_train"
	}
	return "unknown"
}

// Phase maps a kernel to the timing phase its cycles are reported under
// in the Figure 5 breakdowns (both PL phases; init_train stays on the
// CPU and never crosses the kernel boundary).
func (k Kernel) Phase() timing.Phase {
	if k == KernelSeqTrain {
		return timing.PhaseSeqTrain
	}
	return timing.PhasePredictSeq
}

// KernelCosts is the kernel → cycle-cost table of one core: the number
// of datapath cycles one invocation of each kernel consumes, indexed by
// Kernel. A guard-rejected seq_train costs less (see SeqTrain).
type KernelCosts [NumKernels]int64

// KernelCosts returns the core's full kernel → cycle-cost table.
func (c *Core) KernelCosts() KernelCosts { return c.sched.costs() }

// AnalyticKernelCosts returns the kernel cost table for a core of the
// given dimensions without allocating its BRAM state — the schedule
// depends only on dimensions and the cycle model (it is
// QFormat-invariant: only the binary point moves, not the operation
// schedule).
func AnalyticKernelCosts(inputSize, hiddenSize, outputSize int, model CycleModel) KernelCosts {
	return newSchedule(inputSize, hiddenSize, outputSize, model).costs()
}

// step is one entry of a core's cycle schedule: the ops one kernel stage
// issues to one datapath unit and the cycles they occupy it.
type step struct {
	kern        ProfKernel
	unit        ProfUnit
	ops, cycles int64
}

// schedule is the core's only source of cycle cost. The paper's core has
// "only a single add, mult, and div unit", so a module's cycles are the
// sum over its ops of the issuing unit's latency, and every loop trip
// count is fixed by (n, Ñ, m): the whole schedule is known when the core
// is built. Each list is in execution order; Predict and SeqTrain charge
// the cycle counter and the profiler from it (Core.charge).
type schedule struct {
	predict, seqTrain []step
	// bail is the length of the seqTrain prefix a guard-rejected update
	// runs: overhead, hidden pass, p_h and the denominator MACs.
	bail int
}

func newSchedule(inputSize, hiddenSize, outputSize int, model CycleModel) schedule {
	n, h, m := int64(inputSize), int64(hiddenSize), int64(outputSize)
	latency := [NumProfUnits]int64{
		UnitAdd: model.Add, UnitMul: model.Mul, UnitDiv: model.Div, UnitInvoke: model.InvokeOverhead,
	}
	var steps []step
	issue := func(k ProfKernel, u ProfUnit, ops int64) {
		steps = append(steps, step{k, u, ops, ops * latency[u]})
	}
	mac := func(k ProfKernel, ops int64) {
		issue(k, UnitAdd, ops)
		issue(k, UnitMul, ops)
	}
	var s schedule

	issue(KernOverhead, UnitInvoke, 1)
	mac(KernHiddenPass, h*n)
	mac(KernResidual, m*h) // y = h·β
	s.predict, steps = steps, nil

	issue(KernOverhead, UnitInvoke, 1)
	mac(KernHiddenPass, h*n)
	mac(KernPH, h*h)
	mac(KernGain, h) // denom = 1 + h·ph
	s.bail = len(steps)
	issue(KernGain, UnitDiv, 1) // s = 1/denom
	issue(KernGain, UnitMul, h) // g = s·ph
	mac(KernDowndate, h*h)
	mac(KernResidual, m*h)
	issue(KernResidual, UnitAdd, m) // e = t − h·β
	mac(KernBetaUpdate, m*h)
	s.seqTrain = steps
	return s
}

func (s schedule) costs() KernelCosts {
	var kc KernelCosts
	for _, st := range s.predict {
		kc[KernelPredict] += st.cycles
	}
	for _, st := range s.seqTrain {
		kc[KernelSeqTrain] += st.cycles
	}
	return kc
}
