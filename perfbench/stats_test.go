package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"oselmrl/internal/env"
	"oselmrl/internal/timing"
)

func TestSupportedPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // ranks 991..1000 lie beyond
		{999, 99, false}, // only 9 beyond
		{10000, 99.9, true},
		{9999, 99.9, false},
		{20, 50, true},
		{19, 50, false},
		{0, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for n, want := range map[int]float64{19: 0, 20: 50, 999: 95, 1000: 99, 10000: 99.9, 100000: 99.99} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", n, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(s, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestParseServerTiming(t *testing.T) {
	for _, c := range []struct {
		h                 string
		q, e              float64
		hasQueue, hasEval bool
	}{
		{"queue;dur=0.0012, eval;dur=0.0310", 0.0012, 0.031, true, true},
		{"queue;dur=0.5000", 0.5, 0, true, false},
		{"eval;desc=\"x\";dur=2, queue;dur=1", 1, 2, true, true},
		{"queue;dur=abc, eval", 0, 0, false, false},
		{"", 0, 0, false, false},
	} {
		q, e, hq, he := parseServerTiming(c.h)
		if q != c.q || e != c.e || hq != c.hasQueue || he != c.hasEval {
			t.Errorf("parseServerTiming(%q) = %g, %g, %v, %v; want %g, %g, %v, %v",
				c.h, q, e, hq, he, c.q, c.e, c.hasQueue, c.hasEval)
		}
	}
}

func TestFailFractionCountsWrongAnswers(t *testing.T) {
	var tl tally
	for _, o := range []outcome{
		classify(200, true), classify(200, true), classify(200, true),
		classify(200, false), // a 200 with the wrong answer
		classify(429, false),
		classify(500, false),
	} {
		tl.add(o)
	}
	if tl.attempted != 6 || tl.ok != 3 || tl.wrong != 1 || tl.shed != 1 || tl.other != 1 {
		t.Fatalf("tally = %+v", tl)
	}
	if tl.failed() != 3 || tl.failFrac() != 0.5 {
		t.Errorf("failed = %d (frac %g), want 3 (0.5)", tl.failed(), tl.failFrac())
	}
	var sum tally
	sum.merge(tl)
	sum.merge(tl)
	if sum.failed() != 6 || sum.failFrac() != 0.5 {
		t.Errorf("merged failed = %d (frac %g), want 6 (0.5)", sum.failed(), sum.failFrac())
	}
	if (tally{}).failFrac() != 0 {
		t.Error("an empty tally must report no failures")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	c := newCoverage(at(0), at(100))
	// Children in start order: [10,40] and [30,60] overlap, [50,55] lies
	// inside their union, [90,120] runs past the parent's end.
	for _, iv := range [][2]int{{10, 40}, {30, 60}, {50, 55}, {90, 120}} {
		c.add(at(iv[0]), at(iv[1]))
	}
	if c.covered != 60*time.Microsecond {
		t.Errorf("covered = %v, want 60µs", c.covered)
	}
	if c.self() != 40*time.Microsecond {
		t.Errorf("self = %v, want 40µs", c.self())
	}
}

func TestBenchmarkFileAgreesWithBinary(t *testing.T) {
	if err := validateFile("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsDisagreement(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	load := func() benchmarkFile {
		var b benchmarkFile
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, c := range map[string]struct {
		mutate func(*benchmarkFile)
		want   string
	}{
		"undeclared": {func(b *benchmarkFile) { b.PerLayer = b.PerLayer[1:] }, "not declared"},
		"unknown":    {func(b *benchmarkFile) { b.PerLayer[0].Name = "no.such_metric" }, "not emitted"},
		"bad name":   {func(b *benchmarkFile) { b.PerLayer[0].Name = "bad name" }, "malformed"},
		"unit":       {func(b *benchmarkFile) { b.EndToEnd[0].Unit = "ms" }, "declared"},
		"direction":  {func(b *benchmarkFile) { b.EndToEnd[0].Better = "up" }, "direction"},
		"wrong mode": {func(b *benchmarkFile) { b.EndToEnd, b.PerLayer = b.EndToEnd[1:], append(b.PerLayer, b.EndToEnd[0]) }, "other mode"},
		"workload":   {func(b *benchmarkFile) { b.Workloads[0].Name = "train-fpga" }, "workload"},
	} {
		b := load()
		c.mutate(&b)
		err := validate(b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %v, want an error mentioning %q", name, err, c.want)
		}
	}
}

func TestHistPercentileKeepsThreeDigits(t *testing.T) {
	h, other := newHist(), newHist()
	exact := make([]float64, 0, 20000)
	for i := 1; i <= 20000; i++ {
		v := 0.001 * float64(i) // 1µs .. 20ms, in milliseconds
		exact = append(exact, v)
		if i%2 == 0 {
			h.add(v)
		} else {
			other.add(v)
		}
	}
	h.merge(other)
	if h.n != 20000 {
		t.Fatalf("n = %d, want 20000", h.n)
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		got, want := h.percentile(p), percentile(exact, p)
		if d := got/want - 1; d > 0.001 || d < -0.001 {
			t.Errorf("p%g = %g, exact %g", p, got, want)
		}
	}
	if !math.IsNaN(newHist().percentile(50)) {
		t.Error("an empty histogram has no percentiles")
	}
}

func TestSubWindowEstimates(t *testing.T) {
	const length = 10 * time.Millisecond
	newClientSubs := func(n int) []subWindow {
		subs := make([]subWindow, n)
		for i := range subs {
			subs[i] = subWindow{recorded: true, lat: newSubHist()}
		}
		return subs
	}
	// Two clients over 21 sub-windows of 10ms. Sub-window j holds j correct
	// answers of each client at (21-j) ms, and a wrong answer at 0.5 ms
	// that counts towards latency but not throughput. The last one was not
	// recorded (a window that did not count), and holds far more answers.
	a, b := newClientSubs(21), newClientSubs(21)
	for j := 0; j < 21; j++ {
		n := j
		if j == 20 {
			n = 1000
		}
		for _, sw := range []*subWindow{&a[j], &b[j]} {
			sw.ok = float64(n)
			for i := 0; i < n; i++ {
				sw.lat.add(float64(21 - j))
			}
		}
		a[j].lat.add(0.5)
	}
	a[20].recorded, b[20].recorded = false, false
	clients := [][]subWindow{a, b}
	// Throughputs 0, 200, ..., 3800/s; the nearest-rank p95 of 20 is the 19th.
	if got := subWindowRPS(clients, length, 95); got != 3600 {
		t.Errorf("p95 throughput = %g, want 3600", got)
	}
	// Medians: sub-window 0 holds only the wrong answer (0.5 ms), the others
	// 2..20 ms. Of 20 medians the nearest-rank p5 is the lowest and p10 the
	// next.
	if got := subWindowP50(clients, 5); got < 0.5/1.04 || got > 0.5*1.04 {
		t.Errorf("p5 median = %g ms, want 0.5 ms within a 4%% bucket", got)
	}
	if got := subWindowP50(clients, 10); got < 2/1.04 || got > 2*1.04 {
		t.Errorf("p10 median = %g ms, want 2 ms within a 4%% bucket", got)
	}
	none := [][]subWindow{make([]subWindow, 3)}
	if rps, p50 := subWindowRPS(none, time.Second, 95), subWindowP50(none, 5); !math.IsNaN(rps) || !math.IsNaN(p50) {
		t.Errorf("nothing recorded gave rps %g, p50 %g; want NaN for both", rps, p50)
	}
}

func TestSharedRPSIgnoresTheSplit(t *testing.T) {
	const length = 10 * time.Millisecond
	// Two tenants, the second three times as costly per request, one client
	// each. Sub-window k serves 30-3k of the first and k of the second: the
	// split swings, the work done stays 30 cost units per sub-window. A last
	// sub-window was not recorded and holds far more answers.
	a, b := make([]subWindow, 11), make([]subWindow, 11)
	for k := 0; k < 10; k++ {
		a[k] = subWindow{recorded: true, ok: float64(30 - 3*k)}
		b[k] = subWindow{recorded: true, ok: float64(k)}
	}
	a[10], b[10] = subWindow{ok: 1000}, subWindow{ok: 1000}
	rps := sharedRPS([][][]subWindow{{a}, {b}}, []float64{1, 3}, length, 90)
	// 165 and 45 answers in 100 ms: the level's mean rates, since every
	// sub-window did the same work.
	for i, want := range []float64{1650, 450} {
		if d := rps[i] - want; d > 1e-6 || d < -1e-6 {
			t.Errorf("tenant %d: %g req/s, want %g", i, rps[i], want)
		}
	}
	// The rates spend exactly the chosen work rate, at the level's split:
	// at p100 that of a sub-window doing twice the work, 60 units in 10ms.
	a[0].ok, b[0].ok = 33, 9
	rps = sharedRPS([][][]subWindow{{a}, {b}}, []float64{1, 3}, length, 100)
	if w := rps[0]*1 + rps[1]*3; w < 6000-1e-6 || w > 6000+1e-6 {
		t.Errorf("rates spend %g cost units per second, want 6000", w)
	}
	if d := rps[0]/rps[1] - 168.0/54; d > 1e-9 || d < -1e-9 {
		t.Errorf("split %g, want the level's 168:54", rps[0]/rps[1])
	}
}

func TestAddRequestSplitsAcrossSubWindows(t *testing.T) {
	const length = 10 * time.Millisecond
	subs := make([]subWindow, 3)
	for i := range subs {
		subs[i].lat = newSubHist()
	}
	ms := time.Millisecond
	addRequest(subs, length, outcomeOK, 5*ms, 25*ms)  // 5 + 10 + 5 ms
	addRequest(subs, length, outcomeOK, 28*ms, 32*ms) // half past the last
	addRequest(subs, length, outcomeShed, 1*ms, 2*ms) // latency only
	addRequest(subs, length, outcomeOK, 12*ms, 12*ms) // instantaneous
	want := []float64{0.25, 1.5, 0.25 + 0.5}
	for j, w := range want {
		if d := subs[j].ok - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("sub-window %d counts %g answers, want %g", j, subs[j].ok, w)
		}
	}
	// Latencies count where the request completed: the shed one in 0, the
	// instantaneous one in 1, the 20ms one in 2; the last completed past
	// the end.
	for j, n := range []int64{1, 1, 1} {
		if subs[j].lat.n != n {
			t.Errorf("sub-window %d holds %d latencies, want %d", j, subs[j].lat.n, n)
		}
	}
}

// countingEnv ends every episode after its episode number of steps.
type countingEnv struct {
	env.Env
	episode, step int
}

func (e *countingEnv) Reset() []float64 { e.episode++; e.step = 0; return nil }

func (e *countingEnv) Step(int) ([]float64, float64, bool) {
	e.step++
	time.Sleep(time.Millisecond)
	return nil, 1, e.step >= e.episode
}

func TestLapsSplitTrialAtEnvCalls(t *testing.T) {
	ctr := timing.NewCounters()
	le := &lapEnv{Env: &countingEnv{}, ctr: ctr}
	start := time.Now()
	for ep := 1; ep <= 3; ep++ {
		le.Reset()
		for done := false; !done; {
			ctr.Add(timing.PhaseSeqTrain, 1) // the agent's work before a step
			_, _, done = le.Step(0)
		}
	}
	end := time.Now()
	laps := le.finish(end)
	seq := func(n int32) [len(phases)]int32 { return [len(phases)]int32{n} }
	want := []lapKind{
		{'r', 's', seq(1)}, {'s', 'r', seq(0)},
		{'r', 's', seq(1)}, {'s', 's', seq(1)}, {'s', 'r', seq(0)},
		{'r', 's', seq(1)}, {'s', 's', seq(1)}, {'s', 's', seq(1)}, {'s', 'e', seq(0)},
	}
	if len(laps) != len(want) {
		t.Fatalf("%d laps, want one per env call (%d)", len(laps), len(want))
	}
	var sum time.Duration
	for i, l := range laps {
		if l.kind != want[i] {
			t.Errorf("lap %d is %+v, want %+v", i, l.kind, want[i])
		}
		sum += l.d
	}
	// Each Step sleeps 1ms, which falls in the lap that the call starts.
	if whole := end.Sub(start); sum > whole || whole-sum > time.Millisecond || sum < 6*time.Millisecond {
		t.Errorf("laps sum to %v; the trial took %v from its first reset, with 6 steps of 1ms", sum, whole)
	}
}
