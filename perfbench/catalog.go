package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"time"

	"oselmrl/internal/harness"
)

// Workload constants. They are fixed here, never derived from a run, so two
// commits measured with this file do the same work.
const (
	// maxProcs caps GOMAXPROCS (and with it serve's default Pool and Queue)
	// so that a larger host does not change the serving configuration.
	maxProcs = 2

	// Training: the paper's 64-unit network on CartPole-v0 with
	// harness.Defaults(), capped at episodeCap episodes per trial so that a
	// trial costs about a second. The cap is not a multiple of the
	// 300-episode reset rule, so a trial ends on a trained agent rather than
	// on freshly reset weights, and the kernel probes run on trained state.
	obsSize, actionCount = 4, 2
	trainHidden          = 64
	episodeCap           = 500
	// trialsPerPass trials make one pass; the exact metrics come from it.
	trialsPerPass = 6
	// warmupEpisodes is the length of the unmeasured trial that runs first.
	warmupEpisodes = 40

	// Serving: two tenants of different widths, closed-loop clients that
	// each wait for their answer, and every predictEvery-th request a
	// /predict (the rest /act).
	paperHidden     = 64
	wideHidden      = 1024 // BENCH_4's width, where evaluation dominates
	statesPerTenant = 256
	predictEvery    = 4
	serveWarmup     = 300 * time.Millisecond

	// rounds is how often a run alternates a training slice with one
	// window per serving level.
	rounds = 10

	// setupRepeats is how often set-up runs; setup_s is the median.
	setupRepeats = 5

	// Host timer probe: how late time.Sleep(timerProbeSleep) returns.
	timerProbeSamples = 1000
	timerProbeSleep   = 50 * time.Microsecond

	// Exact cycle costs of one kernel call at 64 units, Q20, default cycle
	// model (EXPERIMENTS.md).
	wantPredictCycles  = 784
	wantSeqTrainCycles = 17521
)

// Shares of --seconds given to the training phase and to each serving level.
const (
	trainShare = 0.7
	levelShare = 0.15
)

// tenants are served in this order; paper is the paper's width.
var tenants = []tenantSpec{{"paper", paperHidden}, {"wide", wideHidden}}

type tenantSpec struct {
	name   string
	hidden int
}

// level is a fixed closed-loop concurrency: clientsPerTenant goroutines per
// tenant, each bound to that tenant. c2 comes first: c8's throughputs
// weigh each tenant's answers by its c2 request time (see
// serving.levelMetrics).
type level struct {
	name             string
	clientsPerTenant int
}

var levels = []level{{"c2", 1}, {"c8", 4}}

// Serving windows split into sub-windows of the workload's subWindow.
// Throughputs are the fastPct-th percentile over sub-windows, and c2's
// median latency the (100-fastPct)-th percentile of the sub-windows'
// medians.
const fastPct = 99.5

// workload pairs one training design with one serving mode. Each workload
// runs both phases, so every end-to-end metric is measured on every
// workload; the two workloads are crossed so that each optimisation target
// is exercised by one and bypassed by the other.
type workload struct {
	name        string
	why         string
	design      harness.Design
	batchWindow time.Duration
	batchMax    int
	// subWindow is long enough to hold tens of requests per client at c2.
	subWindow time.Duration
}

var workloads = []workload{
	{
		name: "fpga-inline",
		why: "FPGA design (Q20) trains CartPole through the fixed-point datapath; " +
			"serving evaluates each request inline (decode, admission, QValues, encode)",
		design:    harness.DesignFPGA,
		subWindow: 5 * time.Millisecond,
	},
	{
		name: "float-batched",
		why: "float OS-ELM-L2-Lipschitz trains CartPole, bypassing the datapath; " +
			"serving micro-batches requests (500us window, max 8) through QValuesBatch",
		design:      harness.DesignOSELML2Lipschitz,
		batchWindow: 500 * time.Microsecond,
		batchMax:    8,
		subWindow:   50 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trialSeed derives the i-th trial seed of a pass from the workload seed.
func trialSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// metricDef declares one metric. endToEnd metrics are printed by untraced
// runs and carry a regression bound; the others are per-layer metrics
// printed by traced runs.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`

	endToEnd bool
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, endToEnd: true}
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// catalog is every metric the benchmark emits, in BENCHMARK.json order.
var catalog = []metricDef{
	e2e("steps_per_s", "steps/s", "higher", 0.25),
	e2e("model_us_per_step", "us", "lower", 0.1),
	e2e("serve_rps.c2", "req/s", "higher", 0.25),
	e2e("serve_p50_ms.c2", "ms", "lower", 0.25),
	e2e("serve_rps.paper.c8", "req/s", "higher", 0.25),
	e2e("serve_rps.wide.c8", "req/s", "higher", 0.25),
	e2e("setup_s", "s", "lower", 0.25),
	e2e("rss_peak_mb", "MB", "lower", 0.25),

	layer("best_avg100", "steps", "higher"),
	layer("serve_fail_frac", "ratio", "lower"),
	layer("trace_overhead_frac", "ratio", "lower"),
	layer("serve.trace_overhead_frac", "ratio", "lower"),
	layer("fpga.seq_train_us", "us", "lower"),
	layer("fpga.predict_us", "us", "lower"),
	layer("fpga.seq_train_allocs", "count", "lower"),
	layer("fpga.seq_train_cycles", "cycles", "lower"),
	layer("fpga.predict_cycles", "cycles", "lower"),
	layer("fpga.denom_guard_trips", "count", "lower"),
	layer("oselm.seq_train_us", "us", "lower"),
	layer("oselm.seq_train_allocs", "count", "lower"),
	layer("oselm.init_train_us", "us", "lower"),
	layer("oselm.guard_trips", "count", "lower"),
	layer("agent.select_us", "us", "lower"),
	layer("agent.observe_us", "us", "lower"),
	layer("agent.end_episode_us", "us", "lower"),
	layer("agent.seq_train_per_step", "calls/step", "lower"),
	layer("agent.predict_per_step", "calls/step", "lower"),
	layer("agent.init_train_calls", "count", "lower"),
	layer("model.seq_train_s", "s", "lower"),
	layer("model.predict_seq_s", "s", "lower"),
	layer("model.init_train_s", "s", "lower"),
	layer("model.predict_init_s", "s", "lower"),
	layer("env.step_us", "us", "lower"),
	layer("harness.self_us_per_step", "us", "lower"),
	layer("alloc_bytes_per_step", "B", "lower"),
	layer("gc.pause_ms", "ms", "lower"),
	layer("qnet.eval_us.paper", "us", "lower"),
	layer("qnet.eval_us.wide", "us", "lower"),
	layer("qnet.eval_batch_us_per_row.paper.k8", "us", "lower"),
	layer("qnet.eval_batch_us_per_row.wide.k8", "us", "lower"),
	layer("serve.queue_ms_p50", "ms", "lower"),
	layer("serve.queue_ms_p99", "ms", "lower"),
	layer("serve.eval_ms_p50", "ms", "lower"),
	layer("serve.eval_ms_p99", "ms", "lower"),
	layer("serve.other_us_p50", "us", "lower"),
	layer("serve.batch_size_mean.paper", "count", "higher"),
	layer("serve.batch_size_mean.wide", "count", "higher"),
	layer("serve.shed", "count", "lower"),
	layer("serve.timeouts", "count", "lower"),
	layer("serve.p50_ms.paper.c8", "ms", "lower"),
	layer("serve.p50_ms.wide.c8", "ms", "lower"),
	layer("serve.p90_ms.c2", "ms", "lower"),
	layer("serve.p90_ms.paper.c8", "ms", "lower"),
	layer("serve.p90_ms.wide.c8", "ms", "lower"),
	layer("serve.p99_ms.c2", "ms", "lower"),
	layer("serve.p99_ms.paper.c8", "ms", "lower"),
	layer("serve.p99_ms.wide.c8", "ms", "lower"),
	layer("serve.samples.c2", "count", "higher"),
	layer("serve.samples.c8", "count", "higher"),
	layer("alloc_bytes_per_req", "B", "lower"),
	layer("persist.load_ms.paper", "ms", "lower"),
	layer("persist.load_ms.wide", "ms", "lower"),
	layer("host.timer_overshoot_us_p50", "us", "lower"),
	layer("host.timer_overshoot_us_p99", "us", "lower"),
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// benchmarkFile is BENCHMARK.json. Decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateFile checks that BENCHMARK.json and this binary agree: the same
// workloads, and the same metrics with the same units, directions and
// bounds, each in the section (end_to_end or per_layer) whose mode emits
// it, with well-formed names.
func validateFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return validate(b)
}

func validate(b benchmarkFile) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if len(b.Workloads) != len(workloads) {
		bad("BENCHMARK.json declares %d workloads, the binary runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if !nameRE.MatchString(w.Name) {
			bad("workload name %q is malformed", w.Name)
		}
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			bad("workload %d is %q, the binary runs %q with another why", i, w.Name, workloads[i].name)
		}
	}

	seen := map[string]bool{}
	check := func(section string, declared []metricDef, wantE2E bool) {
		for _, d := range declared {
			if !nameRE.MatchString(d.Name) {
				bad("%s: metric name %q is malformed", section, d.Name)
			}
			if !unitRE.MatchString(d.Unit) {
				bad("%s: %s has malformed unit %q", section, d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				bad("%s: %s has direction %q", section, d.Name, d.Better)
			}
			if seen[d.Name] {
				bad("%s: %s is declared twice", section, d.Name)
			}
			seen[d.Name] = true
			m, ok := lookupMetric(d.Name)
			switch {
			case !ok:
				bad("%s: %s is not emitted by the binary", section, d.Name)
			case m.endToEnd != wantE2E:
				bad("%s: %s is emitted in the other mode", section, d.Name)
			case m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound:
				bad("%s: %s is declared %s/%s/%g, emitted %s/%s/%g",
					section, d.Name, d.Unit, d.Better, d.Bound, m.Unit, m.Better, m.Bound)
			}
			if wantE2E && (d.Bound <= 0 || d.Bound > 0.25) {
				bad("%s: %s has bound %g outside (0, 0.25]", section, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, true)
	check("per_layer", b.PerLayer, false)
	for _, m := range catalog {
		if !seen[m.Name] {
			bad("%s is emitted by the binary but not declared", m.Name)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("BENCHMARK.json disagrees with the binary: %w", errors.Join(errs...))
}
