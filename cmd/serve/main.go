// Command serve runs the policy-inference service of internal/serve: it
// loads trained agent checkpoints (cmd/train -save) and answers
// /v1/predict, /v1/act and /v1/info over HTTP JSON, with live Prometheus
// /metrics (plus /healthz and /snapshot) on the same listener.
//
// Usage:
//
//	go run ./cmd/train -design OS-ELM-L2-Lipschitz -save agent.json
//	go run ./cmd/serve -checkpoint agent.json -addr :8080
//	curl -s -d '{"state":[0.1,0,-0.05,0]}' localhost:8080/v1/predict
//
// Multi-tenant serving: each repeatable -policy name=path flag registers
// an independently hot-reloadable policy at /v1/t/{name}/predict (and
// /act, /info), with tenant-labeled metrics and per-tenant quotas set by
// repeatable -quota name=rps flags. -checkpoint is shorthand for
// -policy default=path; the "default" tenant also answers the bare /v1/*
// routes.
//
// Micro-batching: -batch-window coalesces in-flight evaluations per
// tenant into one QValuesBatch call (up to -batch-max per flush). A batch flushes as
// soon as no other request for the tenant is inside the server, so a
// request with no peer in flight is evaluated at once; the window only
// bounds waiting for requests already in admission or decode. Answers
// are bit-identical to the per-request path; under concurrent load
// throughput rises because one collector pass amortizes per-request
// dispatch.
//
// Hot-reload: SIGHUP re-reads every checkpoint and swaps each in
// atomically (zero dropped requests); -watch POLLS each file's content
// fingerprint instead, for training jobs that overwrite snapshots on a
// schedule (failed reloads retry every tick). SIGINT/SIGTERM shut down
// gracefully, draining in-flight requests. Overload is shed with 429 and
// a queue-depth-derived Retry-After once the worker pool and its bounded
// queue are full — size them with -pool and -queue. cmd/loadgen measures
// the achieved throughput and latency quantiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oselmrl/internal/cli"
	"oselmrl/internal/obs"
	"oselmrl/internal/obs/export"
	"oselmrl/internal/obs/slo"
	"oselmrl/internal/serve"
)

// mapFlag collects repeatable name=value flags into a map.
type mapFlag struct {
	vals map[string]string
	what string
}

func (m *mapFlag) String() string {
	if m == nil || len(m.vals) == 0 {
		return ""
	}
	parts := make([]string, 0, len(m.vals))
	for k, v := range m.vals {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (m *mapFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" || val == "" {
		return fmt.Errorf("want name=%s", m.what)
	}
	if m.vals == nil {
		m.vals = make(map[string]string)
	}
	if _, dup := m.vals[name]; dup {
		return fmt.Errorf("duplicate %q", name)
	}
	m.vals[name] = val
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	checkpoint := flag.String("checkpoint", "", "trained agent snapshot for the default tenant (see cmd/train -save)")
	policies := &mapFlag{what: "path"}
	flag.Var(policies, "policy", "tenant policy as name=checkpoint.json (repeatable; served at /v1/t/{name}/)")
	quotas := &mapFlag{what: "rps"}
	flag.Var(quotas, "quota", "per-tenant request quota as name=requests_per_second (repeatable; breach answers 429)")
	addr := flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
	pool := flag.Int("pool", 0, "max concurrent evaluations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting beyond the pool before 429 (0 = 4x pool, -1 = none)")
	timeout := flag.Duration("timeout", time.Second, "per-request budget including queue wait")
	batchWindow := flag.Duration("batch-window", 0, "micro-batch in-flight evaluations per tenant, waiting at most this long for requests already in the server (0 = off)")
	batchMax := flag.Int("batch-max", 16, "max evaluations per micro-batch flush (with -batch-window)")
	watch := flag.Duration("watch", 0, "poll every checkpoint's content fingerprint at this interval and hot-reload on change (0 = off; SIGHUP always reloads)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget for in-flight requests")
	events := flag.String("events", "", "JSONL event log path (\"-\" for stderr); reload events land here")
	access := flag.Bool("access", false, "emit one serve_access event per request to -events (requires -events)")
	sloOn := flag.Bool("slo", false, "evaluate serving SLOs: burn-rate report at /slo, /healthz degrades on fast burn")
	sloP99 := flag.Float64("slo-p99", 100, "latency objective: p99 total latency in ms (with -slo; 0 disables)")
	sloAvail := flag.Float64("slo-availability", 0.999, "availability objective: max fraction shed/timed out is 1 minus this (with -slo; 0 disables)")
	tracePath := flag.String("trace", "", "record request spans and write a Chrome trace-event timeline here at shutdown (also live at /trace)")
	flag.Parse()
	if *checkpoint == "" && len(policies.vals) == 0 {
		fmt.Fprintln(os.Stderr, "serve: -checkpoint or at least one -policy name=path is required")
		return 2
	}
	if *access && *events == "" {
		fmt.Fprintln(os.Stderr, "serve: -access needs -events to write the access log to")
		return 2
	}
	quotaRates := make(map[string]float64, len(quotas.vals))
	for name, val := range quotas.vals {
		rps, err := strconv.ParseFloat(val, 64)
		if err != nil || rps <= 0 {
			fmt.Fprintf(os.Stderr, "serve: -quota %s=%s: want a positive requests/second\n", name, val)
			return 2
		}
		quotaRates[name] = rps
	}

	emitter, err := cli.NewEventsEmitter(*events)
	if err != nil {
		return fail(err)
	}
	if emitter == nil {
		emitter = obs.NewEmitter(nil) // metrics-only: /metrics always serves
	}

	var eng *slo.Engine
	if *sloOn {
		eng = slo.NewEngine(slo.Objectives{LatencyP99MS: *sloP99, Availability: *sloAvail})
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
		emitter.SetTracer(tracer)
	}

	svc, err := serve.New(serve.Config{
		Checkpoint:  *checkpoint,
		Policies:    policies.vals,
		Quotas:      quotaRates,
		Pool:        *pool,
		Queue:       *queue,
		Timeout:     *timeout,
		BatchWindow: *batchWindow,
		BatchMax:    *batchMax,
		Obs:         emitter,
		AccessLog:   *access,
		SLO:         eng,
	})
	if err != nil {
		return fail(err)
	}
	defer svc.Close()
	for _, name := range svc.Tenants() {
		t, _ := svc.Tenant(name)
		info := t.Policy().Info()
		fmt.Fprintf(os.Stderr, "serve: tenant %s: loaded %s (%s, %d->%d, hidden %d, %d updates)\n",
			name, info.Source, info.Design, info.ObservationSize, info.ActionCount, info.Hidden, info.Updates)
	}
	if *batchWindow > 0 {
		fmt.Fprintf(os.Stderr, "serve: micro-batching on (window %s, max %d)\n", *batchWindow, *batchMax)
	}

	exportOpts := []export.Option{export.WithRoute("/v1/", svc.Handler())}
	if eng != nil {
		exportOpts = append(exportOpts, export.WithSLO(eng))
	}
	if tracer != nil {
		exportOpts = append(exportOpts, export.WithTracer(tracer))
	}
	srv, err := export.Serve(*addr, emitter.Metrics(), exportOpts...)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "serve: listening on http://%s (predict at /v1/predict, metrics at /metrics)\n", srv.Addr())

	if *watch > 0 {
		stop := svc.WatchAll(*watch, func(err error) {
			fmt.Fprintln(os.Stderr, "serve: watch:", err)
		})
		defer stop()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if err := svc.ReloadAll(); err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				continue
			}
			for _, name := range svc.Tenants() {
				t, _ := svc.Tenant(name)
				fmt.Fprintf(os.Stderr, "serve: reloaded tenant %s (generation %d)\n", name, t.Policy().Generation())
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "serve: %s received, draining\n", sig)
		break
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fail(fmt.Errorf("shutdown: %w", err))
	}
	svc.Close()
	if tracer != nil {
		if err := writeTrace(*tracePath, tracer); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "serve: %d request spans written to %s\n", tracer.Len(), *tracePath)
	}
	if eng != nil {
		rep := eng.Report()
		fmt.Fprintf(os.Stderr, "serve: slo: %d requests, %d slow, %d shed, %d timed out\n",
			rep.Requests, rep.SlowRequests, rep.Shed, rep.Timeouts)
	}
	if err := emitter.Close(); err != nil {
		return fail(err)
	}
	fmt.Fprintln(os.Stderr, "serve: drained, bye")
	return 0
}

// writeTrace dumps the recorded request spans as a Chrome trace-event
// timeline (the offline counterpart of the live /trace endpoint).
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export.WriteTrace(f, tracer.Spans(), export.TraceMeta{Tool: "serve", Dropped: tracer.Dropped()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "serve:", err)
	return 1
}
