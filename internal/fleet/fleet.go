// Package fleet is a discrete-event simulator for a multi-core OS-ELM
// fleet on one FPGA device: N replicated single-unit cores (N capped by
// the Table 3 resource estimator via fpga.CoresPerDevice) fed
// predict/seq_train kernels by a single shared dispatcher over the AXI
// interconnect. It answers the question the paper's single-core cycle
// model cannot: how does modelled time scale as cores are replicated,
// and where does the shared dispatcher saturate the curve?
//
// # Model
//
// Time is counted in integer device cycles (125 MHz by default, the
// paper's PL clock). A Workload is a set of members, each a sequential
// chain of kernel invocations (Jobs) with per-invocation cycle costs
// taken from the fpga kernel-boundary interface (Core.KernelCosts /
// AnalyticKernelCosts) — the simulator charges time without
// re-executing any arithmetic. The dispatcher is serialized: issuing
// one kernel to a core occupies it for Config.DispatchCycles (default
// 1000 cycles = the 8 µs AXI handshake of timing.FPGA125 at 125 MHz),
// which is the Amdahl-style serial fraction that bounds fleet speedup.
// Cores execute at most one job at a time; each core accumulates its
// busy cycles in its own timing.Counters (merged only at the
// simulation barrier — the safe-for-concurrent-use pattern).
//
// # Determinism
//
// The event queue is a binary heap ordered by (time, seq): events at
// equal timestamps fire in ascending sequence number, i.e. insertion
// order — the tie-break rule. Ready members queue FIFO; a free core is
// always the lowest-indexed free core. Two simulations of the same
// workload and config therefore produce byte-identical event logs and
// speedup tables (asserted by TestFleetDeterminism).
package fleet

import (
	"container/heap"
	"fmt"
	"strings"

	"oselmrl/internal/fpga"
	"oselmrl/internal/timing"
)

// DefaultClockHz is the paper's programmable-logic clock (§4.2).
const DefaultClockHz = 125e6

// DefaultDispatchCycles is the serialized per-kernel dispatch cost: the
// 8 µs AXI invocation handshake of timing.FPGA125 expressed in 125 MHz
// cycles. With this default a 1-core fleet's makespan equals the
// sequential timing model's Profile.Seconds to the cycle.
// (Pinned against timing.FPGA125 in tests; a const cannot reference it.)
const DefaultDispatchCycles int64 = 1000

// Job is one kernel invocation in a member's chain.
type Job struct {
	// Kernel identifies the module invoked (predict or seq_train).
	Kernel fpga.Kernel
	// Cycles is the invocation's datapath cost at the kernel boundary.
	Cycles int64
}

// Chain is one member's sequential program: job i+1 becomes ready only
// when job i completes (an agent cannot overlap its own kernels).
type Chain []Job

// Workload is a named set of member chains to schedule on one device.
type Workload struct {
	// Name labels reports and logs ("population-training", ...).
	Name string
	// Members holds one chain per fleet member. Distinct members are
	// independent and may run concurrently on different cores.
	Members []Chain
}

// TotalJobs counts kernel invocations across all members.
func (w Workload) TotalJobs() int {
	n := 0
	for _, c := range w.Members {
		n += len(c)
	}
	return n
}

// TotalCycles sums the kernel-boundary cycle cost across all members
// (excluding dispatch).
func (w Workload) TotalCycles() int64 {
	var s int64
	for _, c := range w.Members {
		for _, j := range c {
			s += j.Cycles
		}
	}
	return s
}

// Config parameterizes one simulation.
type Config struct {
	// Cores is the number of replicated cores on the device (>= 1).
	Cores int
	// DispatchCycles is the serialized dispatcher occupancy per issued
	// kernel; 0 selects DefaultDispatchCycles.
	DispatchCycles int64
	// ClockHz converts cycles to modelled seconds; 0 selects
	// DefaultClockHz.
	ClockHz float64
}

func (c Config) fill() Config {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.DispatchCycles <= 0 {
		c.DispatchCycles = DefaultDispatchCycles
	}
	if c.ClockHz <= 0 {
		c.ClockHz = DefaultClockHz
	}
	return c
}

// Record is one event-log entry. Logs are deterministic: equal inputs
// produce byte-identical LogText output.
type Record struct {
	// At is the event time in device cycles.
	At int64
	// Seq is the record's index in the log — strictly increasing, so
	// equal-time records preserve their firing order.
	Seq uint64
	// Ev is the event kind: "ready", "dispatch", "start" or "done".
	Ev string
	// Member is the chain the event belongs to.
	Member int
	// Core is the core involved (-1 for ready events, which precede
	// core assignment).
	Core int
	// Kernel and Cycles describe the job.
	Kernel fpga.Kernel
	// Cycles is the job's kernel-boundary cost.
	Cycles int64
}

// Result summarizes one simulation.
type Result struct {
	// Workload and Config echo the inputs.
	Workload string
	Config   Config
	// MakespanCycles is the completion time of the last job.
	MakespanCycles int64
	// CoreBusyCycles[i] is the total cycles core i spent executing jobs.
	CoreBusyCycles []int64
	// CoreJobs[i] counts jobs executed on core i.
	CoreJobs []int64
	// CoreCounters[i] is core i's private per-phase work counters
	// (predict_seq / seq_train calls and cycle work), owned by the core
	// during simulation and merged only via MergedCounters — the
	// Counters-per-core pattern that keeps timing.Counters safe for
	// concurrent fleet use.
	CoreCounters []*timing.Counters
	// Dispatches counts issued kernels; DispatchBusyCycles is the
	// dispatcher's total occupancy (Dispatches × DispatchCycles).
	Dispatches         int64
	DispatchBusyCycles int64
	// MaxQueueDepth is the peak length of the ready queue observed when
	// a member became ready; QueueDepthSum/Dispatches is the mean depth
	// seen at dispatch time.
	MaxQueueDepth int
	QueueDepthSum int64
	// TotalJobCycles is Σ CoreBusyCycles — the fleet's modelled kernel
	// cycles, which the N=1 property test pins against Core.Cycles().
	TotalJobCycles int64
	// Log is the full deterministic event log.
	Log []Record
}

// MakespanSeconds converts the makespan to modelled device seconds.
func (r *Result) MakespanSeconds() float64 {
	return float64(r.MakespanCycles) / r.Config.ClockHz
}

// BusyFraction returns core i's busy fraction of the makespan (0 for an
// empty run).
func (r *Result) BusyFraction(i int) float64 {
	if r.MakespanCycles == 0 {
		return 0
	}
	return float64(r.CoreBusyCycles[i]) / float64(r.MakespanCycles)
}

// BusyMinMax returns the smallest and largest per-core busy fraction.
func (r *Result) BusyMinMax() (lo, hi float64) {
	for i := range r.CoreBusyCycles {
		f := r.BusyFraction(i)
		if i == 0 || f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi
}

// MeanQueueDepth is the mean ready-queue depth observed at dispatch
// instants.
func (r *Result) MeanQueueDepth() float64 {
	if r.Dispatches == 0 {
		return 0
	}
	return float64(r.QueueDepthSum) / float64(r.Dispatches)
}

// MergedCounters merges every core's private counters at the fleet
// barrier — the only sanctioned cross-core aggregation point.
func (r *Result) MergedCounters() *timing.Counters {
	merged := timing.NewCounters()
	for _, c := range r.CoreCounters {
		merged.Merge(c)
	}
	return merged
}

// Breakdown reports the fleet's modelled time as a timing.Breakdown:
// per-phase device seconds of the serialized reference execution (each
// kernel's cycles plus its dispatch handshake), compatible with the
// sequential model's Figure 5 shape. For a 1-core fleet the breakdown
// total equals MakespanSeconds exactly; for N cores the ratio
// Breakdown().Total() / MakespanSeconds() is the modelled speedup.
func (r *Result) Breakdown() timing.Breakdown {
	out := make(timing.Breakdown)
	merged := r.MergedCounters()
	for _, p := range []timing.Phase{timing.PhasePredictSeq, timing.PhaseSeqTrain} {
		calls := merged.Calls(p)
		if calls == 0 {
			continue
		}
		cycles := merged.Work(p) + float64(calls*r.Config.DispatchCycles)
		out[p] = cycles / r.Config.ClockHz
	}
	return out
}

// SequentialSeconds is the serialized reference time: every kernel plus
// its dispatch run back-to-back on one core — identical to a 1-core
// simulation's makespan (asserted in tests).
func (r *Result) SequentialSeconds() float64 {
	return float64(r.TotalJobCycles+r.DispatchBusyCycles) / r.Config.ClockHz
}

// Speedup is the modelled fleet speedup over the serialized reference.
func (r *Result) Speedup() float64 {
	if r.MakespanCycles == 0 {
		return 1
	}
	return float64(r.TotalJobCycles+r.DispatchBusyCycles) / float64(r.MakespanCycles)
}

// LogText renders the event log, one line per record, in a stable
// format (the determinism test compares these bytes).
func (r *Result) LogText() []byte {
	var sb strings.Builder
	for _, rec := range r.Log {
		fmt.Fprintf(&sb, "t=%012d seq=%06d %-8s member=%03d core=%03d kernel=%s cycles=%d\n",
			rec.At, rec.Seq, rec.Ev, rec.Member, rec.Core, rec.Kernel, rec.Cycles)
	}
	return []byte(sb.String())
}

// event kinds inside the queue.
const (
	evReady      = iota // a member's next job entered the ready queue
	evDispatched        // dispatch handshake finished; job starts on its core
	evDone              // core finished a job
)

type event struct {
	at     int64
	seq    uint64
	kind   int
	member int
	core   int
}

// eventQueue is a binary min-heap ordered by (at, seq) — the package's
// documented tie-break: equal timestamps fire in insertion order.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)   { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)     { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any       { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q eventQueue) peekEmpty() bool { return len(q) == 0 }

// Simulate runs the workload to completion and returns the result.
func Simulate(w Workload, cfg Config) *Result {
	cfg = cfg.fill()
	res := &Result{
		Workload:       w.Name,
		Config:         cfg,
		CoreBusyCycles: make([]int64, cfg.Cores),
		CoreJobs:       make([]int64, cfg.Cores),
		CoreCounters:   make([]*timing.Counters, cfg.Cores),
	}
	for i := range res.CoreCounters {
		res.CoreCounters[i] = timing.NewCounters()
	}

	var (
		q        eventQueue
		seq      uint64
		nextJob  = make([]int, len(w.Members)) // index into each chain
		coreBusy = make([]bool, cfg.Cores)
		readyQ   []int // FIFO of members awaiting dispatch
		dispFree int64 // dispatcher free at this time
		clock    int64
	)
	push := func(at int64, kind, member, core int) {
		heap.Push(&q, event{at: at, seq: seq, kind: kind, member: member, core: core})
		seq++
	}
	logEv := func(at int64, ev string, member, core int, j Job) {
		res.Log = append(res.Log, Record{
			At: at, Seq: uint64(len(res.Log)), Ev: ev, Member: member, Core: core,
			Kernel: j.Kernel, Cycles: j.Cycles,
		})
	}
	jobOf := func(member int) Job { return w.Members[member][nextJob[member]] }

	// tryDispatch issues at most one kernel: the dispatcher is
	// serialized, so after reserving a core it is busy until
	// now + DispatchCycles and cannot issue again until then.
	tryDispatch := func(now int64) {
		if dispFree > now || len(readyQ) == 0 {
			return
		}
		core := -1
		for i, busy := range coreBusy {
			if !busy {
				core = i
				break
			}
		}
		if core < 0 {
			return
		}
		member := readyQ[0]
		readyQ = readyQ[1:]
		res.QueueDepthSum += int64(len(readyQ)) + 1
		coreBusy[core] = true
		dispFree = now + cfg.DispatchCycles
		res.Dispatches++
		res.DispatchBusyCycles += cfg.DispatchCycles
		logEv(now, "dispatch", member, core, jobOf(member))
		push(dispFree, evDispatched, member, core)
	}

	for m, chain := range w.Members {
		if len(chain) > 0 {
			push(0, evReady, m, -1)
		}
	}
	for !q.peekEmpty() {
		e := heap.Pop(&q).(event)
		clock = e.at
		switch e.kind {
		case evReady:
			readyQ = append(readyQ, e.member)
			if d := len(readyQ); d > res.MaxQueueDepth {
				res.MaxQueueDepth = d
			}
			logEv(clock, "ready", e.member, -1, jobOf(e.member))
			tryDispatch(clock)
		case evDispatched:
			j := jobOf(e.member)
			logEv(clock, "start", e.member, e.core, j)
			push(clock+j.Cycles, evDone, e.member, e.core)
			// The handshake just finished, so the dispatcher is free
			// again at exactly this time.
			tryDispatch(clock)
		case evDone:
			j := jobOf(e.member)
			logEv(clock, "done", e.member, e.core, j)
			res.CoreBusyCycles[e.core] += j.Cycles
			res.CoreJobs[e.core]++
			res.TotalJobCycles += j.Cycles
			res.CoreCounters[e.core].Add(j.Kernel.Phase(), float64(j.Cycles))
			coreBusy[e.core] = false
			nextJob[e.member]++
			if nextJob[e.member] < len(w.Members[e.member]) {
				push(clock, evReady, e.member, -1)
			}
			if clock > res.MakespanCycles {
				res.MakespanCycles = clock
			}
			tryDispatch(clock)
		}
	}
	return res
}
