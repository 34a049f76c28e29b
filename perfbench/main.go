// Command perfbench is the repository's benchmark: CartPole training on the
// FPGA and float designs and two-tenant in-process policy serving, with
// end-to-end metrics from untraced runs and per-layer metrics from traced
// runs. See README.md; run it from the repository root with
//
//	bash perfbench/run.sh --workload fpga-inline --seed 1 --seconds 40 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"oselmrl/internal/fpga"
	"oselmrl/internal/harness"
	"oselmrl/internal/obs"
	"oselmrl/internal/obs/export"
	"oselmrl/internal/qnet"
	"oselmrl/internal/serve"
	"oselmrl/internal/vcs"
)

// buildDir holds everything a run writes, relative to the repository root.
const buildDir = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metrics collects one run's values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	validateOnly := fs.Bool("validate-only", false, "check that BENCHMARK.json agrees with this binary and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *validateOnly {
		if err := validateFile("BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: BENCHMARK.json agrees with the binary (%d workloads, %d metrics)\n", len(workloads), len(catalog))
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, gates, err := measure(w, *seed, *seconds, *trace == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, g := range gates {
		fmt.Fprintln(stderr, "perfbench: correctness gate:", g)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure runs one workload: the timer probe, set-up (setupRepeats times),
// training and serving, then the kernel and evaluator probes. It returns
// the result line and every correctness gate that broke.
func measure(w workload, seed uint64, seconds int, traced bool, stdout, stderr io.Writer) (*result, []string, error) {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	m := metrics{}
	var gates []string

	overshootP50, overshootP99 := timerOvershoot()
	m.set("host.timer_overshoot_us_p50", overshootP50)
	m.set("host.timer_overshoot_us_p99", overshootP99)
	if err := printStamp(stdout, w, seed, seconds, traced, overshootP50, overshootP99); err != nil {
		return nil, nil, err
	}

	runDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	var tr *obs.Tracer
	var base time.Time
	if traced {
		base = time.Now()
		tr = obs.NewTracer()
		tr.SetMaxSpans(300_000)
	}

	// Set-up, timed setupRepeats times; the last rig is measured. Every
	// rig must give the same expected answers.
	var r *rig
	var setupS, loadPaper, loadWide []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		next, err := setup(w, seed, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)), traced)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		loadPaper = append(loadPaper, next.tenants[0].loadMS)
		loadWide = append(loadWide, next.tenants[1].loadMS)
		if r != nil {
			if !sameAnswers(r, next) {
				gates = append(gates, "set-up: repeated set-up built different expected answers")
			}
			r.close()
		}
		r = next
		// Collect the previous rig now, so that the memory peak does not
		// depend on when the collector happens to run.
		runtime.GC()
	}
	defer r.close()
	m.set("setup_s", median(setupS))
	m.set("persist.load_ms.paper", median(loadPaper))
	m.set("persist.load_ms.wide", median(loadWide))

	// Training and serving. An untraced run interleaves them: each of
	// rounds rounds is a training slice of whole trials followed by one
	// window per serving level, so that every metric samples the whole run
	// and its best-of estimate finds the host's fast spells wherever they
	// fall. A traced run trains first and then serves.
	sv := newServing(r, float64(seconds), w.subWindow, base)
	var train *trainReport
	var err error
	if traced {
		if train, err = runTracedTraining(w, seed, tr); err != nil {
			return nil, nil, fmt.Errorf("training: %w", err)
		}
	}
	var tg *trainer
	if !traced {
		if tg, err = startTraining(w, seed); err != nil {
			return nil, nil, fmt.Errorf("training: %w", err)
		}
	}
	slice := time.Duration(float64(seconds) * trainShare / rounds * float64(time.Second))
	for round := 0; round < rounds; round++ {
		// Each phase starts on a collected heap, so that it does not pay
		// for the garbage of the phase before it.
		if tg != nil {
			runtime.GC()
			if err := tg.slice(slice); err != nil {
				return nil, nil, fmt.Errorf("training: %w", err)
			}
		}
		for _, lv := range levels {
			runtime.GC()
			sv.run(lv, round)
		}
	}
	if tg != nil {
		if train, err = tg.finish(); err != nil {
			return nil, nil, fmt.Errorf("training: %w", err)
		}
	}
	sv.finish()
	gates = append(gates, train.mismatch...)
	trainMetrics(m, w, train)

	// Kernel probes: the workload's own design on its final trained agent,
	// the other design on the set-up probe agent.
	probeStates := r.tenants[0].states
	fpgaAgent, qnetAgent := train.last, r.probeAgent
	if w.design != harness.DesignFPGA {
		fpgaAgent, qnetAgent = r.probeAgent, train.last
	}
	// The pass sums the guard trips of the workload's own design; the other
	// design's come from its set-up probe agent, read before its probe.
	if w.design == harness.DesignFPGA {
		m.set("oselm.guard_trips", float64(r.probeAgent.(*qnet.Agent).Theta1().GuardTrips()))
	} else {
		m.set("fpga.denom_guard_trips", float64(r.probeAgent.(*fpga.Agent).Core().DenomGuardTrips()))
	}
	gates = append(gates, probeFPGA(fpgaAgent.(*fpga.Agent).Core(), probeStates, tr, m)...)
	gates = append(gates, probeOSELM(qnetAgent.(*qnet.Agent).Theta1(), probeStates, tr, m)...)
	for _, t := range r.tenants {
		k1, k8, err := probeEvaluator(t.agent, t.states, tr, t.spec.name)
		if err != nil {
			return nil, nil, fmt.Errorf("evaluator probe %s: %w", t.spec.name, err)
		}
		m.set("qnet.eval_us."+t.spec.name, k1)
		m.set("qnet.eval_batch_us_per_row."+t.spec.name+".k8", k8)
	}

	gates = append(gates, sv.gates...)
	if sv.tally.wrong > 0 {
		gates = append(gates, fmt.Sprintf("serve: %d responses differ from the direct evaluation", sv.tally.wrong))
	}
	for k, v := range sv.values {
		m.set(k, v)
	}
	serveMetrics(m, r, sv)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, nil, err
	}
	m.set("rss_peak_mb", float64(ru.Maxrss)/1024) // Linux reports kilobytes

	if traced {
		if err := writeTrace(w, seed, tr, sv.spans); err != nil {
			return nil, nil, err
		}
	}

	res := &result{
		Attempted: int64(train.trials) + sv.tally.attempted,
		Failed:    int64(train.failed) + sv.tally.failed(),
		Metrics:   map[string]metricValue{},
	}
	for _, def := range catalog {
		if def.endToEnd == traced {
			continue
		}
		v, ok := m[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			gates = append(gates, fmt.Sprintf("metric %s was not measured", def.Name))
			continue
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	res.Correct = len(gates) == 0
	printReport(stderr, w, traced, m, train, sv)
	return res, gates, nil
}

// sameAnswers reports whether two rigs expect the same response bodies.
func sameAnswers(a, b *rig) bool {
	for i, t := range a.tenants {
		for k := range t.want {
			for j, want := range t.want[k] {
				if string(want) != string(b.tenants[i].want[k][j]) {
					return false
				}
			}
		}
	}
	return true
}

// trainMetrics reports the training phase. The exact metrics come from the
// first pass; throughput comes from every measured trial.
func trainMetrics(m metrics, w workload, t *trainReport) {
	tot, best := passTotals(t.pass)
	steps := float64(tot.steps)
	modelS := 0.0
	for i, p := range phases {
		modelS += tot.modelS[i]
		m.set("model."+string(p)+"_s", tot.modelS[i])
	}
	m.set("model_us_per_step", modelS*1e6/steps)
	m.set("best_avg100", best)
	m.set("agent.seq_train_per_step", float64(tot.calls[0])/steps)
	m.set("agent.predict_per_step", float64(tot.calls[1]+tot.calls[3])/steps)
	m.set("agent.init_train_calls", float64(tot.calls[2]))
	if w.design == harness.DesignFPGA {
		m.set("fpga.denom_guard_trips", float64(tot.guardTrips))
	} else {
		m.set("oselm.guard_trips", float64(tot.guardTrips))
	}
	if t.tt == nil {
		m.set("steps_per_s", t.bestRate)
		return
	}
	tt := t.tt
	m.set("agent.select_us", tt.selectS.meanUS())
	m.set("agent.observe_us", tt.observeS.meanUS())
	m.set("agent.end_episode_us", tt.endS.meanUS())
	m.set("env.step_us", tt.stepS.meanUS())
	m.set("harness.self_us_per_step", float64(tt.runSelf)/float64(tt.steps)/float64(time.Microsecond))
	m.set("alloc_bytes_per_step", float64(t.allocBytes)/float64(t.untracedSteps))
	m.set("gc.pause_ms", float64(t.gcPause)/1e6)
	perStep := func(wall time.Duration, steps int64) float64 { return wall.Seconds() / float64(steps) }
	m.set("trace_overhead_frac", perStep(t.tracedWall, t.tracedSteps)/perStep(t.untracedWall, t.untracedSteps)-1)
}

// serveMetrics reports the serving phase's per-layer metrics (traced runs).
func serveMetrics(m metrics, r *rig, sv *serving) {
	m.set("serve_fail_frac", sv.tally.failFrac())
	m.set("serve.samples.c2", float64(sv.samples["c2"]))
	m.set("serve.samples.c8", float64(sv.samples["c8"]))
	if r.em == nil {
		return
	}
	m.set("serve.queue_ms_p50", sv.queueMS.percentile(50))
	m.set("serve.queue_ms_p99", sv.queueMS.percentile(99))
	m.set("serve.eval_ms_p50", sv.evalMS.percentile(50))
	m.set("serve.eval_ms_p99", sv.evalMS.percentile(99))
	m.set("serve.other_us_p50", sv.otherUS.percentile(50))
	m.set("serve.trace_overhead_frac", median(sv.plainRPS)/median(sv.tracedRPS)-1)
	m.set("alloc_bytes_per_req", float64(sv.allocBytes)/float64(sv.allocReqs))
	snap := r.em.Metrics().Snapshot()
	m.set("serve.shed", float64(snap.Counter(serve.MetricShed)))
	m.set("serve.timeouts", float64(snap.Counter(serve.MetricTimeout)))
	for _, t := range tenants {
		mean := 1.0 // the per-request path evaluates every request alone
		if h := snap.Histograms[obs.Labeled(serve.HistBatchSize, "tenant", t.name)]; h != nil {
			mean = h.Mean()
		}
		m.set("serve.batch_size_mean."+t.name, mean)
	}
}

// stamp identifies the host, the build and the workload settings of a run.
type stamp struct {
	CPU                 string         `json:"cpu"`
	NProc               int            `json:"nproc"`
	GOMAXPROCS          int            `json:"gomaxprocs"`
	GOAMD64             string         `json:"goamd64"`
	GoVersion           string         `json:"go_version"`
	GitSHA              string         `json:"git_sha"`
	GitDirty            bool           `json:"git_dirty"`
	Workload            string         `json:"workload"`
	Seed                uint64         `json:"seed"`
	Seconds             int            `json:"seconds"`
	Traced              bool           `json:"traced"`
	Constants           map[string]any `json:"constants"`
	TimerOvershootUSP50 float64        `json:"host.timer_overshoot_us_p50"`
	TimerOvershootUSP99 float64        `json:"host.timer_overshoot_us_p99"`
}

func printStamp(out io.Writer, w workload, seed uint64, seconds int, traced bool, p50, p99 float64) error {
	head := vcs.Head()
	s := stamp{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64: buildSetting("GOAMD64"), GoVersion: runtime.Version(),
		GitSHA: head.SHA, GitDirty: head.Dirty,
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Constants: map[string]any{
			"design": string(w.design), "train_hidden": trainHidden, "episode_cap": episodeCap,
			"trials_per_pass": trialsPerPass, "trial_seeds": fmt.Sprintf("seed*1000+1 .. seed*1000+%d", trialsPerPass),
			"tenants":         fmt.Sprintf("paper=%d,wide=%d", paperHidden, wideHidden),
			"batch_window_us": w.batchWindow.Microseconds(), "batch_max": w.batchMax,
			"levels": "c2=1/tenant,c8=4/tenant", "rounds": rounds,
			"predict_every": predictEvery, "setup_repeats": setupRepeats,
			"train_share": trainShare, "level_share": levelShare,
		},
		TimerOvershootUSP50: p50, TimerOvershootUSP99: p99,
	}
	b, err := json.Marshal(map[string]stamp{"stamp": s})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func buildSetting(key string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == key {
				return s.Value
			}
		}
	}
	return "unset"
}

// writeTrace writes the traced run's spans as a Perfetto trace. The span
// tree is fixed: spanParent names each span's parent.
func writeTrace(w workload, seed uint64, tr *obs.Tracer, extra []obs.SpanRecord) error {
	spans := append(tr.Spans(), extra...)
	labels := map[string]string{"workload": w.name, "seed": fmt.Sprint(seed),
		"sample_every_episode": fmt.Sprint(spanSampleEvery), "sample_every_request": fmt.Sprint(requestSpanEvery)}
	for child, parent := range spanParent {
		labels["parent."+child] = parent
	}
	path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = export.WriteTrace(f, spans, export.TraceMeta{Tool: "perfbench", Labels: labels, Dropped: tr.Dropped()})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func roundList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

var spanParent = map[string]string{
	"agent.select": "harness.run", "agent.observe": "harness.run", "agent.end_episode": "harness.run",
	"env.step": "harness.run", "env.reset": "harness.run",
	"serve.queue": "client.request", "serve.eval": "client.request",
}

// printReport writes a readable summary to w.
func printReport(w io.Writer, wl workload, traced bool, m metrics, t *trainReport, sv *serving) {
	tot, _ := passTotals(t.pass)
	fmt.Fprintf(w, "perfbench %s: pass of %d trials, %d steps, %d episodes; %d trials measured\n",
		wl.name, len(t.pass), tot.steps, tot.episodes, t.trials)
	for _, lv := range levels {
		n := sv.samples[lv.name]
		fmt.Fprintf(w, "perfbench %s: %s %d requests over %d windows, enough for p%g\n",
			wl.name, lv.name, n, rounds, highestSupported(int(n)))
	}
	for _, def := range catalog {
		if v, ok := sv.values[def.Name]; ok && strings.HasPrefix(def.Name, "serve.p") && !traced {
			fmt.Fprintf(w, "  %-38s %14.6g %s (per-layer, ungated)\n", def.Name, v, def.Unit)
		}
	}
	if len(t.rates) > 0 {
		lo, hi := slices.Min(t.rates), slices.Max(t.rates)
		fmt.Fprintf(w, "perfbench %s: steps/s of %d trial runs: min %.4g, median %.4g, max %.4g; at fast lap times %.4g (%d kinds of lap)\n",
			wl.name, len(t.rates), lo, median(t.rates), hi, t.bestRate, t.lapKinds)
	}
	for _, lv := range levels {
		if ws := sv.windows[lv.name]; len(ws) > 0 {
			rps := make([]float64, len(ws))
			for i, x := range ws {
				rps[i] = x.totalRPS()
			}
			fmt.Fprintf(w, "perfbench %s: %s req/s per round %s\n", wl.name, lv.name, roundList(rps))
		}
	}
	for _, def := range catalog {
		if v, ok := m[def.Name]; ok && def.endToEnd != traced {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", def.Name, v, def.Unit)
		}
	}
}
