// Command loadgen is a closed-loop load generator for cmd/serve: N
// workers each issue one request at a time over keep-alive connections
// for a fixed duration, then the tool reports achieved QPS and latency
// quantiles — the measurement behind the serving-throughput acceptance
// numbers in README.md.
//
// Usage:
//
//	go run ./cmd/serve -checkpoint agent.json -addr :8080 &
//	go run ./cmd/loadgen -url http://localhost:8080 -duration 5s -concurrency 16
//
// The probe state defaults to a zero vector of the served model's input
// size (discovered via /v1/info); -state overrides it with comma-
// separated floats. Any non-2xx response or transport error counts as an
// error, and the exit code is non-zero if any occurred (or if nothing
// succeeded), so CI can assert a healthy server with one command.
//
// Multi-tenant runs: -tenants alpha,beta round-robins requests across
// /v1/t/{name}/ routes (each tenant's state probed via its own /v1/info)
// and the report carries per-tenant request counts.
//
// A/B runs: -ab URL2 measures the same workload twice — first against
// -url (label "unbatched"), then against URL2 (label "batched") — and
// prints the throughput and p99 deltas. -ab-out writes the pair as a
// cmd/bench-compatible BENCH snapshot (rows ServeAB/<label>/throughput
// and ServeAB/<label>/p99), so `cmd/bench -compare` and CI thresholds
// work on serving A/Bs exactly as on Go benchmarks. This is how the
// micro-batching acceptance numbers (BENCH_4.json) were produced.
//
// With -slo the tool additionally replays the traffic through a
// client-side burn-rate engine (internal/obs/slo): every response is
// classified (200 OK, 400 client error, 429 shed, transport error
// timeout), the server's Server-Timing header splits each latency into
// queue-wait and evaluator components, and the report carries the full
// SLO evaluation — quantiles per component, 5m/1h burn rates, and the
// overall budget verdict. The exit code then gates on the objectives: a
// run that as a whole burned more than its error budget exits nonzero,
// making `loadgen -slo` a one-command serving-SLO check for CI:
//
//	go run ./cmd/loadgen -slo -duration 5s -slo-out slo-report.json
//	go run ./cmd/loadgen -slo -slo-p99 0.0001 ...   # forced breach demo
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"oselmrl/internal/obs/slo"
)

type report struct {
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	Shed       int     `json:"shed,omitempty"`
	Seconds    float64 `json:"seconds"`
	QPS        float64 `json:"qps"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
	Endpoint   string  `json:"endpoint"`
	Concurrent int     `json:"concurrency"`
	// Tenants is the per-tenant successful-request split with -tenants.
	Tenants map[string]int `json:"tenants,omitempty"`
	// SLO and SLOBreaches are present with -slo: the client-side burn-rate
	// evaluation and the objectives whose overall burn reached 1.
	SLO         *slo.Report `json:"slo,omitempty"`
	SLOBreaches []string    `json:"slo_breaches,omitempty"`
}

// target is one (URL, body) pair the workers cycle through — one per
// tenant, or a single bare-route target without -tenants.
type target struct {
	tenant string
	url    string
	body   []byte
}

func main() { os.Exit(run()) }

func run() int {
	base := flag.String("url", "http://localhost:8080", "base URL of cmd/serve")
	endpoint := flag.String("endpoint", "/v1/predict", "endpoint to hammer (/v1/predict or /v1/act)")
	tenantsFlag := flag.String("tenants", "", "comma-separated tenant names to round-robin via /v1/t/{name}/ routes")
	duration := flag.Duration("duration", 5*time.Second, "measurement window")
	concurrency := flag.Int("concurrency", 16, "closed-loop workers")
	stateFlag := flag.String("state", "", "comma-separated probe state (default: zeros sized via /v1/info)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	abURL := flag.String("ab", "", "second base URL: run the workload against -url then this, report the deltas")
	abOut := flag.String("ab-out", "", "with -ab: write both passes as a cmd/bench-compatible snapshot to this file")
	abLabels := flag.String("ab-labels", "unbatched,batched", "with -ab: labels for the -url and -ab passes")
	sloOn := flag.Bool("slo", false, "evaluate serving SLOs client-side and gate the exit code on them")
	sloP99 := flag.Float64("slo-p99", 100, "latency objective: p99 total latency in ms (with -slo; 0 disables)")
	sloAvail := flag.Float64("slo-availability", 0.999, "availability objective (with -slo; 0 disables)")
	sloOut := flag.String("slo-out", "", "with -slo: also write the full JSON report to this file (the CI artifact)")
	flag.Parse()

	if *abURL != "" && *sloOn {
		fmt.Fprintln(os.Stderr, "loadgen: -ab and -slo are mutually exclusive (A/B is a throughput measurement)")
		return 2
	}
	labelA, labelB, ok := strings.Cut(*abLabels, ",")
	if *abURL != "" && (!ok || labelA == "" || labelB == "") {
		fmt.Fprintln(os.Stderr, "loadgen: -ab-labels wants two comma-separated names")
		return 2
	}

	var tenants []string
	if *tenantsFlag != "" {
		for _, name := range strings.Split(*tenantsFlag, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				fmt.Fprintln(os.Stderr, "loadgen: -tenants has an empty name")
				return 2
			}
			tenants = append(tenants, name)
		}
	}

	var eng *slo.Engine
	if *sloOn {
		eng = slo.NewEngine(slo.Objectives{LatencyP99MS: *sloP99, Availability: *sloAvail})
	}

	client := newClient(*concurrency)
	targets, err := buildTargets(client, *base, *endpoint, tenants, *stateFlag)
	if err != nil {
		return fail(err)
	}
	rep := runPass(client, targets, *duration, *concurrency, eng)
	rep.Endpoint = *endpoint

	if *abURL != "" {
		// Re-probe against the B server: it may serve a different model.
		targetsB, err := buildTargets(client, *abURL, *endpoint, tenants, *stateFlag)
		if err != nil {
			return fail(err)
		}
		repB := runPass(client, targetsB, *duration, *concurrency, eng)
		repB.Endpoint = *endpoint
		printReport(labelA+": ", rep)
		printReport(labelB+": ", repB)
		printABDelta(labelA, labelB, rep, repB)
		if *abOut != "" {
			snap := abSnapshot(labelA, labelB, rep, repB, *duration)
			if err := writeJSONFile(*abOut, snap); err != nil {
				return fail(err)
			}
			fmt.Fprintf(os.Stderr, "loadgen: A/B snapshot written to %s\n", *abOut)
		}
		if rep.Errors > 0 || repB.Errors > 0 || rep.Requests == 0 || repB.Requests == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: FAILED (errors or no successful requests in a pass)")
			return 1
		}
		return 0
	}

	if eng != nil {
		sloRep := eng.Report()
		rep.SLO = &sloRep
		rep.SLOBreaches = slo.GateBreaches(sloRep)
	}

	if *jsonOut {
		json.NewEncoder(os.Stdout).Encode(rep)
	} else {
		printReport("", rep)
		if rep.SLO != nil {
			printSLO(rep.SLO)
		}
	}
	if *sloOut != "" && rep.SLO != nil {
		if err := writeJSONFile(*sloOut, rep); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: slo report written to %s\n", *sloOut)
	}

	if eng != nil {
		// SLO mode gates on the objectives, not on raw error counts:
		// the run fails when some objective's overall burn reached 1 or
		// nothing succeeded at all.
		if len(rep.SLOBreaches) > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: SLO FAILED (breached: %s)\n", strings.Join(rep.SLOBreaches, ", "))
			return 1
		}
		if rep.Requests == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: FAILED (no successful requests)")
			return 1
		}
		fmt.Fprintln(os.Stderr, "loadgen: SLO OK")
		return 0
	}
	if rep.Errors > 0 || rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: FAILED (errors or no successful requests)")
		return 1
	}
	return 0
}

func newClient(concurrency int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        concurrency,
		MaxIdleConnsPerHost: concurrency,
	}
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// buildTargets resolves the (URL, body) pair per tenant: the probe state
// comes from -state or each tenant's own /v1/info (tenants may serve
// models of different input sizes).
func buildTargets(client *http.Client, base, endpoint string, tenants []string, stateFlag string) ([]target, error) {
	prefixes := []string{""}
	names := []string{""}
	if len(tenants) > 0 {
		prefixes = prefixes[:0]
		names = tenants
		for _, name := range tenants {
			prefixes = append(prefixes, "/t/"+name)
		}
	}
	targets := make([]target, 0, len(prefixes))
	for i, prefix := range prefixes {
		infoURL := strings.TrimRight(base, "/") + "/v1" + prefix + "/info"
		state, err := probeState(client, infoURL, stateFlag)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string][]float64{"state": state})
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{
			tenant: names[i],
			url:    strings.TrimRight(base, "/") + "/v1" + prefix + strings.TrimPrefix(endpoint, "/v1"),
			body:   body,
		})
	}
	return targets, nil
}

// runPass drives the closed loop for one measurement window: every
// worker cycles through the targets round-robin (offset by worker index,
// so tenants are hit evenly even with few workers) and classifies each
// response.
func runPass(client *http.Client, targets []target, duration time.Duration, concurrency int, eng *slo.Engine) report {
	type workerResult struct {
		lat      []float64 // milliseconds
		errs     int
		shed     int
		byTarget []int // successful requests per target index
	}
	results := make([]workerResult, concurrency)
	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			res.byTarget = make([]int, len(targets))
			for i := w; time.Now().Before(deadline); i++ {
				tgt := targets[i%len(targets)]
				t0 := time.Now()
				resp, err := client.Post(tgt.url, "application/json", bytes.NewReader(tgt.body))
				totalMS := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					// Transport errors are unavailability from the caller's
					// seat — the SLO engine books them as timeouts.
					res.errs++
					eng.Record(slo.Timeout, 0, 0, totalMS)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				queueMS, evalMS := parseServerTiming(resp.Header.Get("Server-Timing"))
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					eng.Record(slo.OK, queueMS, evalMS, totalMS)
					res.lat = append(res.lat, totalMS)
					res.byTarget[i%len(targets)]++
				case resp.StatusCode == http.StatusTooManyRequests:
					// Shedding is backpressure, not breakage: with -slo it
					// consumes availability budget instead of failing the run
					// outright.
					res.shed++
					eng.Record(slo.Shed, queueMS, 0, totalMS)
					if eng == nil {
						res.errs++
					}
				case resp.StatusCode == http.StatusBadRequest:
					res.errs++
					eng.Record(slo.ClientError, queueMS, evalMS, totalMS)
				case resp.StatusCode >= http.StatusInternalServerError:
					res.errs++
					eng.Record(slo.ServerError, queueMS, evalMS, totalMS)
				default:
					res.errs++
					eng.Record(slo.Timeout, queueMS, 0, totalMS)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var lats []float64
	errs, shed := 0, 0
	perTarget := make([]int, len(targets))
	for _, r := range results {
		lats = append(lats, r.lat...)
		errs += r.errs
		shed += r.shed
		for i, n := range r.byTarget {
			perTarget[i] += n
		}
	}
	sort.Float64s(lats)
	rep := report{
		Requests:   len(lats),
		Errors:     errs,
		Shed:       shed,
		Seconds:    elapsed,
		Concurrent: concurrency,
	}
	if len(targets) > 1 || targets[0].tenant != "" {
		rep.Tenants = make(map[string]int, len(targets))
		for i, tgt := range targets {
			rep.Tenants[tgt.tenant] = perTarget[i]
		}
	}
	if elapsed > 0 {
		rep.QPS = float64(len(lats)) / elapsed
	}
	if len(lats) > 0 {
		rep.P50MS = quantile(lats, 0.50)
		rep.P95MS = quantile(lats, 0.95)
		rep.P99MS = quantile(lats, 0.99)
		rep.MaxMS = lats[len(lats)-1]
	}
	return rep
}

func printReport(prefix string, rep report) {
	fmt.Printf("%sloadgen: %d requests in %.2fs (%d errors, %d shed), %.0f req/s\n",
		prefix, rep.Requests, rep.Seconds, rep.Errors, rep.Shed, rep.QPS)
	fmt.Printf("%slatency ms: p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
		prefix, rep.P50MS, rep.P95MS, rep.P99MS, rep.MaxMS)
	if len(rep.Tenants) > 0 {
		names := make([]string, 0, len(rep.Tenants))
		for name := range rep.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s=%d", name, rep.Tenants[name]))
		}
		fmt.Printf("%sper tenant: %s\n", prefix, strings.Join(parts, " "))
	}
}

// printABDelta summarizes pass B relative to pass A: positive throughput
// delta and non-positive p99 delta is the micro-batching win condition.
func printABDelta(labelA, labelB string, a, b report) {
	pct := func(oldV, newV float64) float64 {
		if oldV == 0 {
			return 0
		}
		return (newV - oldV) / oldV * 100
	}
	fmt.Printf("A/B (%s -> %s): throughput %+0.1f%% (%.0f -> %.0f req/s), p99 %+0.1f%% (%.3f -> %.3f ms)\n",
		labelA, labelB, pct(a.QPS, b.QPS), a.QPS, b.QPS, pct(a.P99MS, b.P99MS), a.P99MS, b.P99MS)
}

// benchResult and benchSnapshot mirror cmd/bench's BENCH_<n>.json schema
// so A/B snapshots compare with `cmd/bench -compare` and live next to the
// Go-benchmark history at the repo root.
type benchResult struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

type benchSnapshot struct {
	GitSHA    string        `json:"git_sha"`
	GoVersion string        `json:"go_version"`
	Platform  string        `json:"platform"`
	Time      string        `json:"time"`
	Benchtime string        `json:"benchtime"`
	Packages  []string      `json:"packages"`
	Results   []benchResult `json:"results"`
}

// abSnapshot converts an A/B pair into bench rows: throughput rows carry
// the mean inter-completion time (1e9/QPS ns — lower is faster, matching
// bench semantics), p99 rows carry the tail latency in ns.
func abSnapshot(labelA, labelB string, a, b report, duration time.Duration) benchSnapshot {
	rows := func(label string, r report) []benchResult {
		out := []benchResult{}
		if r.QPS > 0 {
			out = append(out, benchResult{
				Name:       "ServeAB/" + label + "/throughput",
				Iterations: int64(r.Requests),
				NsPerOp:    1e9 / r.QPS,
			})
		}
		out = append(out,
			benchResult{Name: "ServeAB/" + label + "/p50", Iterations: int64(r.Requests), NsPerOp: r.P50MS * 1e6},
			benchResult{Name: "ServeAB/" + label + "/p99", Iterations: int64(r.Requests), NsPerOp: r.P99MS * 1e6},
		)
		return out
	}
	return benchSnapshot{
		GitSHA:    gitSHA(),
		GoVersion: runtime.Version(),
		Platform:  runtime.GOOS + "/" + runtime.GOARCH,
		Time:      time.Now().UTC().Format(time.RFC3339),
		Benchtime: duration.String(),
		Packages:  []string{"cmd/loadgen A/B"},
		Results:   append(rows(labelA, a), rows(labelB, b)...),
	}
}

// gitSHA returns the current HEAD commit, or "unknown" outside a checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printSLO renders the burn-rate evaluation for humans: the latency
// split quantiles (the Server-Timing decomposition) and each objective's
// burn on the 5m window and over the whole run.
func printSLO(r *slo.Report) {
	fmt.Printf("slo: %d ok, %d client errors, %d shed, %d timeouts, %d server errors, %d slow\n",
		r.OK, r.ClientErrors, r.Shed, r.Timeouts, r.ServerErrors, r.SlowRequests)
	for _, d := range []struct {
		name string
		dist slo.Dist
	}{{"total", r.TotalMS}, {"queue", r.QueueMS}, {"eval", r.EvalMS}} {
		fmt.Printf("slo: %-5s ms p50=%.4f p95=%.4f p99=%.4f max=%.4f\n",
			d.name, d.dist.P50MS, d.dist.P95MS, d.dist.P99MS, d.dist.MaxMS)
	}
	printBurn := func(name string, w5, all *slo.Burn) {
		if w5 == nil || all == nil {
			return
		}
		fmt.Printf("slo: %-12s burn 5m=%.3f overall=%.3f (bad %d/%d)\n",
			name, w5.Rate, all.Rate, all.Bad, all.Requests)
	}
	printBurn("latency", r.Window5m.Latency, r.Overall.Latency)
	printBurn("availability", r.Window5m.Availability, r.Overall.Availability)
}

// parseServerTiming extracts the queue and eval components from the
// serving path's Server-Timing header ("queue;dur=0.0123, eval;dur=0.4").
// Absent or malformed metrics yield zeros.
func parseServerTiming(h string) (queueMS, evalMS float64) {
	for _, part := range strings.Split(h, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		if len(fields) < 2 {
			continue
		}
		name := strings.TrimSpace(fields[0])
		for _, attr := range fields[1:] {
			attr = strings.TrimSpace(attr)
			if !strings.HasPrefix(attr, "dur=") {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimPrefix(attr, "dur="), 64)
			if err != nil {
				continue
			}
			switch name {
			case "queue":
				queueMS = v
			case "eval":
				evalMS = v
			}
		}
	}
	return queueMS, evalMS
}

// writeJSONFile writes v as indented JSON to path.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeState parses -state, or asks the given /v1/info route for the
// model's input size and returns a zero vector.
func probeState(client *http.Client, infoURL, flagVal string) ([]float64, error) {
	if flagVal != "" {
		parts := strings.Split(flagVal, ",")
		state := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("loadgen: -state: %w", err)
			}
			state[i] = v
		}
		return state, nil
	}
	resp, err := client.Get(infoURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: querying %s: %w", infoURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: %s: HTTP %d", infoURL, resp.StatusCode)
	}
	var info struct {
		ObservationSize int `json:"observation_size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("loadgen: decoding %s: %w", infoURL, err)
	}
	if info.ObservationSize <= 0 {
		return nil, fmt.Errorf("loadgen: %s reports observation_size %d", infoURL, info.ObservationSize)
	}
	return make([]float64, info.ObservationSize), nil
}

// quantile returns the p-quantile of sorted values by nearest-rank.
func quantile(sorted []float64, p float64) float64 {
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err.Error())
	return 1
}
