package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"oselmrl"
	"oselmrl/internal/harness"
	"oselmrl/internal/obs"
	"oselmrl/internal/persist"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/serve"
)

// requestSpanEvery is the traced run's sampling rate for request spans.
const requestSpanEvery = 64

// tenantSeed derives tenant i's checkpoint seed from the workload seed.
func tenantSeed(seed uint64, i int) uint64 { return seed*1000 + 500 + uint64(i) }

// cartPoleTransitions plays CartPole with uniformly random actions and
// returns the first n transitions.
func cartPoleTransitions(seed uint64, n int) []replay.Transition {
	e := oselmrl.NewCartPole(seed)
	r := rng.New(seed)
	out := make([]replay.Transition, 0, n)
	s := e.Reset()
	for len(out) < n {
		a := r.Intn(actionCount)
		next, reward, done := e.Step(a)
		out = append(out, replay.Transition{State: s, Action: a, Reward: reward, NextState: next, Done: done})
		s = next
		if done {
			s = e.Reset()
		}
	}
	return out
}

// wireResponse mirrors serve's /predict and /act response body.
type wireResponse struct {
	Action     int       `json:"action"`
	Q          []float64 `json:"q,omitempty"`
	Generation int       `json:"generation"`
}

// Request kinds, indexing tenantRig.url and tenantRig.want.
const (
	kindAct = iota
	kindPredict
)

type tenantRig struct {
	spec   tenantSpec
	agent  *qnet.Agent // loaded from the checkpoint the service serves
	loadMS float64
	states [][]float64
	bodies [][]byte
	want   [2][][]byte // the exact response body per kind and state
	url    [2]*url.URL
}

// rig is what set-up builds: the tenants' checkpoints, the service, the
// request bodies with their expected answers, and an agent of the design
// the workload does not train, for that design's kernel probe.
type rig struct {
	tenants    []*tenantRig
	svc        *serve.Service
	tracedSvc  *serve.Service // traced runs: the same service with its obs histograms on
	em         *obs.Emitter
	probeAgent harness.Agent
}

func (r *rig) close() {
	r.svc.Close()
	if r.tracedSvc != nil {
		r.tracedSvc.Close()
	}
}

// otherDesign is the training design the workload does not run.
func otherDesign(d harness.Design) harness.Design {
	if d == harness.DesignFPGA {
		return harness.DesignOSELML2Lipschitz
	}
	return harness.DesignFPGA
}

// setup builds everything the measurement needs under dir.
func setup(w workload, seed uint64, dir string, traced bool) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{}
	paths := map[string]string{}
	for i, spec := range tenants {
		t, path, err := buildTenant(spec, tenantSeed(seed, i), dir)
		if err != nil {
			return nil, err
		}
		r.tenants = append(r.tenants, t)
		paths[spec.name] = path
	}
	cfg := serve.Config{Policies: paths, BatchWindow: w.batchWindow, BatchMax: w.batchMax}
	svc, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	r.svc = svc
	if traced {
		r.em = obs.NewEmitter(nil)
		cfg.Obs = r.em
		if r.tracedSvc, err = serve.New(cfg); err != nil {
			r.close()
			return nil, err
		}
	}
	// A short trial leaves the other design's agent trained for its probe.
	probe, err := runTrial(otherDesign(w.design), trialSeed(seed, 0), warmupEpisodes, nil, false)
	if err != nil {
		r.close()
		return nil, err
	}
	r.probeAgent = probe.agent
	return r, nil
}

// buildTenant trains a seeded OS-ELM-L2-Lipschitz agent past its initial
// training, checkpoints it, loads the checkpoint back, and encodes the
// tenant's request bodies with the answers the loaded model gives directly.
func buildTenant(spec tenantSpec, seed uint64, dir string) (*tenantRig, string, error) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, obsSize, actionCount, spec.hidden)
	cfg.Seed = seed
	a, err := qnet.New(cfg)
	if err != nil {
		return nil, "", err
	}
	for _, tr := range cartPoleTransitions(seed, spec.hidden+8) {
		if err := a.Observe(tr); err != nil {
			return nil, "", fmt.Errorf("training tenant %s: %w", spec.name, err)
		}
	}
	path := filepath.Join(dir, spec.name+".json")
	if err := persist.SaveAgentFile(path, a); err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	loaded, err := persist.LoadAgentFile(path)
	if err != nil {
		return nil, "", err
	}
	t := &tenantRig{spec: spec, agent: loaded, loadMS: float64(time.Since(t0)) / float64(time.Millisecond)}

	ev := loaded.NewEvaluator()
	for _, tr := range cartPoleTransitions(seed+1, statesPerTenant) {
		body, err := json.Marshal(struct {
			State []float64 `json:"state"`
		}{tr.State})
		if err != nil {
			return nil, "", err
		}
		act, _, err := ev.Best(tr.State)
		if err != nil {
			return nil, "", err
		}
		qs, err := ev.QValues(tr.State)
		if err != nil {
			return nil, "", err
		}
		t.states = append(t.states, tr.State)
		t.bodies = append(t.bodies, body)
		t.want[kindAct] = append(t.want[kindAct], encodeResponse(wireResponse{Action: act, Generation: 1}))
		t.want[kindPredict] = append(t.want[kindPredict], encodeResponse(wireResponse{Action: act, Q: qs, Generation: 1}))
	}
	t.url[kindAct] = &url.URL{Path: "/v1/t/" + spec.name + "/act"}
	t.url[kindPredict] = &url.URL{Path: "/v1/t/" + spec.name + "/predict"}
	return t, path, nil
}

// encodeResponse encodes v the way serve writes a response body.
func encodeResponse(v wireResponse) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v) // a struct of ints and finite floats always encodes
	return b.Bytes()
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// client is one closed-loop caller bound to one tenant: it sends its next
// request only after the previous one is answered, and calls the handler
// in-process, so no socket is opened.
type client struct {
	t     *tenantRig
	group string
	next  int
	req   http.Request
	body  bodyReader
	rec   recorder

	// Per window.
	tally  tally
	record bool // whether this window's latencies count

	lat *hist // milliseconds, over the recorded windows

	// Sub-windows of the recorded windows, for the level's best-of
	// estimates: subs[subBase+j] is sub-window j of the current window,
	// which started at winStart and holds subFull whole sub-windows of
	// subLen.
	subs             []subWindow
	subLen           time.Duration
	subBase, subFull int
	winStart         time.Time

	// Traced windows.
	traced                   bool
	base                     time.Time
	queueMS, evalMS, otherUS *hist
	spans                    []obs.SpanRecord
}

// newClient builds client k of tenant t at level lv, with nsub sub-windows
// of subLen; traced clients also keep the Server-Timing split, with span
// times relative to base.
func newClient(t *tenantRig, k int, lv level, nsub int, subLen time.Duration, traced bool, base time.Time) *client {
	c := &client{t: t, next: k * 37, base: base, group: fmt.Sprintf("serve/%s/%s/client-%d", lv.name, t.spec.name, k),
		subs: make([]subWindow, nsub), subLen: subLen}
	if lv.name == "c2" {
		for i := range c.subs {
			c.subs[i].lat = newSubHist()
		}
	}
	c.req = http.Request{Method: http.MethodPost, Header: http.Header{}, Body: &c.body, Host: "perfbench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	c.rec.h = http.Header{}
	c.lat = newHist()
	if traced {
		c.queueMS, c.evalMS, c.otherUS = newHist(), newHist(), newHist()
	}
	return c
}

func (c *client) run(h http.Handler, deadline time.Time) {
	for time.Now().Before(deadline) {
		c.one(h)
	}
}

func (c *client) one(h http.Handler) {
	n := c.next
	c.next++
	i := n % len(c.t.bodies)
	kind := kindAct
	if n%predictEvery == 0 {
		kind = kindPredict
	}
	c.body.Reset(c.t.bodies[i])
	c.req.URL = c.t.url[kind]
	c.req.ContentLength = int64(len(c.t.bodies[i]))
	c.rec.reset()
	t0 := time.Now()
	h.ServeHTTP(&c.rec, &c.req)
	t1 := time.Now()
	o := classify(c.rec.code, bytes.Equal(c.rec.body.Bytes(), c.t.want[kind][i]))
	c.tally.add(o)
	if c.record {
		c.lat.add(float64(t1.Sub(t0)) / float64(time.Millisecond))
		addRequest(c.subs[c.subBase:c.subBase+c.subFull], c.subLen, o, t0.Sub(c.winStart), t1.Sub(c.winStart))
	}
	if c.traced {
		c.trace(n, t0, t1)
	}
}

// trace splits one request using its Server-Timing header. The queue wait
// is placed at the start of the client span and the evaluation at its end;
// the rest (decode, routing, encode) is the span's self time.
func (c *client) trace(n int, t0, t1 time.Time) {
	q, e, hasQ, hasE := parseServerTiming(c.rec.h.Get("Server-Timing"))
	qEnd := t0.Add(time.Duration(q * float64(time.Millisecond)))
	eStart := t1.Add(-time.Duration(e * float64(time.Millisecond)))
	cov := newCoverage(t0, t1)
	if hasQ {
		cov.add(t0, qEnd)
		c.queueMS.add(q)
	}
	if hasE {
		cov.add(eStart, t1)
		c.evalMS.add(e)
	}
	c.otherUS.add(float64(cov.self()) / float64(time.Microsecond))
	if n%requestSpanEvery != 0 {
		return
	}
	c.spans = append(c.spans, c.span("client.request", t0, t1))
	if hasQ {
		c.spans = append(c.spans, c.span("serve.queue", t0, qEnd))
	}
	if hasE {
		c.spans = append(c.spans, c.span("serve.eval", eStart, t1))
	}
}

func (c *client) span(name string, start, end time.Time) obs.SpanRecord {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return obs.SpanRecord{Name: name, Group: c.group, StartUS: us(start.Sub(c.base)), DurUS: us(end.Sub(start))}
}

// window is one timed stretch of closed-loop traffic at one level.
type window struct {
	wall  time.Duration
	tally tally
}

// runWindow runs clients for d. Latencies count only when record is set,
// into the clients' sub-windows from subBase on; traced clients also split
// each request by its Server-Timing header.
func runWindow(h http.Handler, clients []*client, d time.Duration, subBase int, record, traced bool) window {
	start := time.Now()
	for _, c := range clients {
		c.tally, c.record, c.traced = tally{}, record, traced
		c.winStart, c.subBase, c.subFull = start, subBase, int(d/c.subLen)
		for j := 0; record && j < c.subFull; j++ {
			c.subs[subBase+j].recorded = true
		}
	}
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(h, deadline)
		}(c)
	}
	wg.Wait()
	w := window{wall: time.Since(start)}
	for _, c := range clients {
		w.tally.merge(c.tally)
	}
	return w
}

func (w window) totalRPS() float64 { return float64(w.tally.ok) / w.wall.Seconds() }

// serving drives the closed-loop clients one window at a time and collects
// the serving phase's results. A traced run sends its windows to the traced
// service, except every other c2 window, which goes to the plain service to
// measure the tracing overhead.
type serving struct {
	plain, traced http.Handler // traced is nil in an untraced run
	clients       map[string][]*client
	windows       map[string][]window // per level; in a traced run the traced windows
	window        time.Duration
	subLen        time.Duration
	perWindow     int // whole sub-windows per window

	values  map[string]float64 // end-to-end metrics by name
	c2RPS   []float64          // per tenant, for c8's weights
	samples map[string]int64   // requests per level
	tally   tally
	gates   []string

	// Traced runs only.
	queueMS, evalMS, otherUS *hist
	tracedRPS, plainRPS      []float64 // c2 windows with and without tracing
	allocBytes               uint64
	allocReqs                int64
	spans                    []obs.SpanRecord
}

// newServing builds the clients and warms the service(s) up. Each level
// gets levelShare of seconds, split into rounds windows of sub-windows
// subWindow long.
func newServing(r *rig, seconds float64, subWindow time.Duration, base time.Time) *serving {
	s := &serving{
		plain: r.svc.Handler(), clients: map[string][]*client{}, windows: map[string][]window{},
		window: time.Duration(seconds * levelShare / rounds * float64(time.Second)),
		values: map[string]float64{}, samples: map[string]int64{},
	}
	s.subLen = min(subWindow, s.window)
	s.perWindow = int(s.window / s.subLen)
	if r.tracedSvc != nil {
		s.traced = r.tracedSvc.Handler()
		s.queueMS, s.evalMS, s.otherUS = newHist(), newHist(), newHist()
	}
	for _, lv := range levels {
		for _, t := range r.tenants {
			for k := 0; k < lv.clientsPerTenant; k++ {
				s.clients[lv.name] = append(s.clients[lv.name], newClient(t, k, lv, rounds*s.perWindow, s.subLen, s.traced != nil, base))
			}
		}
	}
	warm := s.clients[levels[len(levels)-1].name]
	s.tally.merge(runWindow(s.plain, warm, serveWarmup, 0, false, false).tally)
	if s.traced != nil {
		s.tally.merge(runWindow(s.traced, warm, serveWarmup, 0, false, false).tally)
	}
	return s
}

// run measures window number round of level lv.
func (s *serving) run(lv level, round int) {
	traced := s.traced != nil
	tracedWindow := traced && (lv.name != "c2" || round%2 == 0)
	h := s.plain
	if tracedWindow {
		h = s.traced
	}
	var ms0, ms1 runtime.MemStats
	if traced && !tracedWindow {
		runtime.ReadMemStats(&ms0)
	}
	record := !traced || tracedWindow
	w := runWindow(h, s.clients[lv.name], s.window, round*s.perWindow, record, tracedWindow)
	s.tally.merge(w.tally)
	s.samples[lv.name] += w.tally.attempted
	switch {
	case record:
		s.windows[lv.name] = append(s.windows[lv.name], w)
		if traced && lv.name == "c2" {
			s.tracedRPS = append(s.tracedRPS, w.totalRPS())
		}
	case !tracedWindow:
		runtime.ReadMemStats(&ms1)
		s.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		s.allocReqs += w.tally.attempted
		s.plainRPS = append(s.plainRPS, w.totalRPS())
	}
}

// finish computes the levels' metrics, from the traced windows in a traced
// run, and gathers the traced clients' samples and spans.
func (s *serving) finish() {
	for _, lv := range levels {
		s.levelMetrics(lv)
	}
	if s.traced == nil {
		return
	}
	for _, lv := range levels {
		for _, c := range s.clients[lv.name] {
			s.queueMS.merge(c.queueMS)
			s.evalMS.merge(c.evalMS)
			s.otherUS.merge(c.otherUS)
			s.spans = append(s.spans, c.spans...)
		}
	}
}

// levelMetrics reports a level's end-to-end metrics, its throughputs and
// (c2) median latency, as best-of estimates over its sub-windows: the host
// this runs on shares its cores and runs the whole process up to twice as
// slowly in spells of milliseconds to seconds, which move a whole run's
// median by tens of percent; the fast end of a run's sub-windows is steady.
//
// At c2 each tenant has one client and, with two cores, a core of its own.
// A tenant's throughput is the fastPct-th percentile of its sub-windows'
// throughputs, and serve_rps.c2 the sum over the tenants. c2's median
// latency is the (100-fastPct)-th percentile of its sub-windows' medians.
//
// At c8 the tenants share the cores, and the scheduler's split between
// them swings from one sub-window to the next, while the split over the
// whole level holds steady. So c8's throughputs come from sharedRPS: the
// fastPct-th percentile of the sub-windows' work rate, each answer
// weighing its tenant's c2 request time, divided between the tenants by
// their shares of the level's answers.
//
// The per-layer percentiles pool the samples of all recorded windows and
// are not gated. At c8 the scheduler decides which client waits for an
// admission slot, so the median flips between the service time and a
// queue wait; and batched latency waits for a timer that this host wakes
// about 1 ms late, so its tail follows the host's timer and moves by 20 to
// 80% between runs (see README.md).
func (s *serving) levelMetrics(lv level) {
	pooled, perTenant := newHist(), map[string]*hist{}
	var pooledSubs [][]subWindow
	tenantSubs := map[string][][]subWindow{}
	for _, c := range s.clients[lv.name] {
		name := c.t.spec.name
		if perTenant[name] == nil {
			perTenant[name] = newHist()
		}
		perTenant[name].merge(c.lat)
		pooled.merge(c.lat)
		tenantSubs[name] = append(tenantSubs[name], c.subs)
		pooledSubs = append(pooledSubs, c.subs)
	}
	pct := func(name string, h *hist, p float64) {
		// A percentile the run reports must have minBeyond samples beyond it.
		if def, _ := lookupMetric(name); def.endToEnd == (s.traced == nil) && !supported(int(h.n), p) {
			s.gates = append(s.gates, fmt.Sprintf("%s: %d samples, too few for p%g", name, h.n, p))
		}
		s.values[name] = h.percentile(p)
	}
	if lv.name == "c2" {
		total := 0.0
		for _, t := range tenants {
			rps := subWindowRPS(tenantSubs[t.name], s.subLen, fastPct)
			s.c2RPS = append(s.c2RPS, rps)
			total += rps
		}
		s.values["serve_rps.c2"] = total
		s.values["serve_p50_ms.c2"] = subWindowP50(pooledSubs, 100-fastPct)
		pct("serve.p90_ms.c2", pooled, 90)
		pct("serve.p99_ms.c2", pooled, 99)
		return
	}
	cost := make([]float64, len(tenants))
	subs := make([][][]subWindow, len(tenants))
	for i, t := range tenants {
		cost[i], subs[i] = 1/s.c2RPS[i], tenantSubs[t.name]
	}
	rps := sharedRPS(subs, cost, s.subLen, fastPct)
	for i, t := range tenants {
		name := t.name
		s.values[fmt.Sprintf("serve_rps.%s.%s", name, lv.name)] = rps[i]
		pct(fmt.Sprintf("serve.p50_ms.%s.%s", name, lv.name), perTenant[name], 50)
		pct(fmt.Sprintf("serve.p90_ms.%s.%s", name, lv.name), perTenant[name], 90)
		pct(fmt.Sprintf("serve.p99_ms.%s.%s", name, lv.name), perTenant[name], 99)
	}
}
