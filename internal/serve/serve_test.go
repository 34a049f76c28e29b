package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/obs/export"
	"oselmrl/internal/persist"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
)

// makeAgent builds a briefly trained agent (4-dim state, 2 actions).
func makeAgent(t testing.TB, hidden int, seed uint64) *qnet.Agent {
	t.Helper()
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, hidden)
	cfg.Seed = seed
	a := qnet.MustNew(cfg)
	r := rng.New(seed)
	randState := func() []float64 {
		return []float64{r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1)}
	}
	for i := 0; i < 3*hidden; i++ {
		if err := a.Observe(replay.Transition{
			State: randState(), Action: r.Intn(2), Reward: r.Uniform(-1, 1),
			NextState: randState(), Done: i%11 == 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// writeCheckpoint atomically writes an agent snapshot.
func writeCheckpoint(t testing.TB, path string, a *qnet.Agent) {
	t.Helper()
	if err := persist.SaveAgentFile(path, a); err != nil {
		t.Fatal(err)
	}
}

func newTestService(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "agent.json")
	writeCheckpoint(t, ckpt, makeAgent(t, 8, 1))
	cfg.Checkpoint = ckpt
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ckpt
}

func postPredict(h http.Handler, path string, state []float64) *httptest.ResponseRecorder {
	body, _ := json.Marshal(evalRequest{State: state})
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServeEndpoints(t *testing.T) {
	em := obs.NewEmitter(nil)
	s, _ := newTestService(t, Config{Obs: em})
	h := s.Handler()

	w := postPredict(h, "/v1/predict", []float64{0.1, -0.2, 0.3, 0})
	if w.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", w.Code, w.Body)
	}
	var resp evalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Q) != 2 || resp.Generation != 1 || resp.Action < 0 || resp.Action > 1 {
		t.Fatalf("predict response %+v", resp)
	}

	w = postPredict(h, "/v1/act", []float64{0.1, -0.2, 0.3, 0})
	if w.Code != http.StatusOK {
		t.Fatalf("act status %d", w.Code)
	}
	var act evalResponse
	json.Unmarshal(w.Body.Bytes(), &act)
	if act.Q != nil {
		t.Error("/v1/act must omit q values")
	}
	if act.Action != resp.Action {
		t.Errorf("act %d != predict %d for the same state", act.Action, resp.Action)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/info", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("info status %d", rec.Code)
	}
	var info Info
	json.Unmarshal(rec.Body.Bytes(), &info)
	if info.ObservationSize != 4 || info.ActionCount != 2 || info.Hidden != 8 || info.Generation != 1 {
		t.Errorf("info %+v", info)
	}

	// Client errors: wrong state size, bad JSON, wrong method.
	if w := postPredict(h, "/v1/predict", []float64{1}); w.Code != http.StatusBadRequest {
		t.Errorf("short state status %d", w.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte("{")))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON status %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict status %d", rec.Code)
	}

	// 4 counted requests: the 405 is rejected before metrics.
	snap := em.Metrics().Snapshot()
	if snap.Counter(MetricRequests) != 4 || snap.Counter(MetricOK) != 2 || snap.Counter(MetricErrors) != 2 {
		t.Errorf("counters %+v", snap.Counters)
	}
	if h := snap.Histograms[HistLatencyMS]; h == nil || h.N != 4 {
		t.Errorf("latency histogram %+v", snap.Histograms)
	}
}

// The hot-reload contract: continuous prediction traffic across many
// checkpoint swaps (including a hidden-width change) sees zero failed
// requests. Run under -race this also proves the pointer-swap scheme has
// no data races between evaluators and reloads.
func TestPredictDuringHotReload(t *testing.T) {
	s, ckpt := newTestService(t, Config{Pool: 8, Obs: obs.NewEmitter(nil)})
	h := s.Handler()

	const workers = 8
	stop := make(chan struct{})
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g + 1))
			lastGen := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := postPredict(h, "/v1/predict", []float64{r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1)})
				if w.Code != http.StatusOK {
					errs <- w.Body.String()
					return
				}
				var resp evalResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- err.Error()
					return
				}
				if resp.Generation < lastGen {
					errs <- "generation went backwards"
					return
				}
				lastGen = resp.Generation
			}
		}(g)
	}

	// 20 reloads under load, alternating hidden widths so the swapped
	// model even changes shape.
	for i := 0; i < 20; i++ {
		hidden := 8
		if i%2 == 1 {
			hidden = 16
		}
		writeCheckpoint(t, ckpt, makeAgent(t, hidden, uint64(i+2)))
		if err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatalf("request failed during reload: %s", e)
	default:
	}
	if gen := s.Policy().Generation(); gen != 21 {
		t.Errorf("generation = %d, want 21", gen)
	}
}

// Backpressure: with one worker and no queue, a second concurrent request
// is shed immediately with 429; with a one-slot queue and a short timeout,
// a queued request that cannot get a worker in time is shed too.
func TestBackpressureSheds429(t *testing.T) {
	em := obs.NewEmitter(nil)
	s, _ := newTestService(t, Config{Pool: 1, Queue: -1, Timeout: 50 * time.Millisecond, Obs: em})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookEval = func() {
		entered <- struct{}{}
		<-release
	}
	h := s.Handler()

	first := make(chan int, 1)
	go func() {
		w := postPredict(h, "/v1/predict", []float64{0, 0, 0, 0})
		first <- w.Code
	}()
	<-entered // the single worker is now busy

	if w := postPredict(h, "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("expected 429 with a full pool and no queue, got %d", w.Code)
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("in-flight request must still succeed, got %d", code)
	}
	if shed := em.Metrics().Snapshot().Counter(MetricShed); shed != 1 {
		t.Errorf("serve_shed = %d, want 1", shed)
	}

	// Queued-then-timed-out: the hook gate is re-armed, queue holds the
	// second request until its 50ms budget expires.
	s2, _ := newTestService(t, Config{Pool: 1, Queue: 1, Timeout: 50 * time.Millisecond, Obs: obs.NewEmitter(nil)})
	entered2 := make(chan struct{}, 1)
	release2 := make(chan struct{})
	s2.testHookEval = func() {
		entered2 <- struct{}{}
		<-release2
	}
	h2 := s2.Handler()
	go func() {
		postPredict(h2, "/v1/predict", []float64{0, 0, 0, 0})
	}()
	<-entered2
	start := time.Now()
	if w := postPredict(h2, "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("expected 429 after queue timeout, got %d", w.Code)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("queued request was shed before its timeout")
	}
	close(release2)
}

// Graceful shutdown over a real listener: a request in flight when
// Shutdown begins is drained to completion, not killed.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	em := obs.NewEmitter(nil)
	s, _ := newTestService(t, Config{Pool: 2, Obs: em})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookEval = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default: // later requests (none expected) pass through
		}
	}
	srv, err := export.Serve("127.0.0.1:0", em.Metrics(), export.WithRoute("/v1/", s.Handler()))
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(evalRequest{State: []float64{0, 0, 0, 0}})
	type result struct {
		code int
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+srv.Addr()+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- result{0, err}
			return
		}
		defer resp.Body.Close()
		inflight <- result{resp.StatusCode, nil}
	}()
	<-entered // request is inside the handler

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must be waiting on the in-flight request, not killing it.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	default:
	}
	close(release)
	if r := <-inflight; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: code=%d err=%v", r.code, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The drained server refuses new work.
	if _, err := http.Post("http://"+srv.Addr()+"/v1/predict", "application/json", bytes.NewReader(body)); err == nil {
		t.Error("post-shutdown request should fail")
	}
}

// A failed reload (corrupt checkpoint) keeps the old policy serving.
func TestReloadFailureKeepsOldPolicy(t *testing.T) {
	em := obs.NewEmitter(nil)
	s, ckpt := newTestService(t, Config{Obs: em})
	if err := os.WriteFile(ckpt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("reload of a corrupt checkpoint must error")
	}
	if w := postPredict(s.Handler(), "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
		t.Errorf("old policy must keep serving, got %d", w.Code)
	}
	if s.Policy().Generation() != 1 {
		t.Error("generation must not advance on a failed reload")
	}
	if n := em.Metrics().Snapshot().Counter(MetricReloadErrors); n != 1 {
		t.Errorf("serve_reload_errors = %d", n)
	}
}

// The mtime watcher reloads when the checkpoint file changes.
func TestWatchCheckpoint(t *testing.T) {
	s, ckpt := newTestService(t, Config{Obs: obs.NewEmitter(nil)})
	stop := s.WatchCheckpoint(5*time.Millisecond, nil)
	defer stop()

	// Ensure the rewritten file differs in size or mtime: a different
	// hidden width changes the payload size.
	writeCheckpoint(t, ckpt, makeAgent(t, 16, 7))
	deadline := time.Now().Add(5 * time.Second)
	for s.Policy().Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never reloaded the changed checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Policy().Info().Hidden; got != 16 {
		t.Errorf("reloaded hidden = %d, want 16", got)
	}
	stop()
	stop() // idempotent
}
