package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/obs/slo"
	"oselmrl/internal/rng"
)

// tenantItem builds one item for a tenant's collector — submitting
// hand-built items is the deterministic way to exercise batch boundaries.
func tenantItem(state []float64, includeQ bool) *batchItem {
	return &batchItem{state: state, includeQ: includeQ, out: make(chan batchOut, 1)}
}

// park registers an item as arriving, as handleEval does on entry, and
// submits it.
func park(t *testing.T, b *batcher, it *batchItem) {
	t.Helper()
	b.arriving.Add(1)
	if !b.submit(it) {
		t.Fatal("submit refused")
	}
}

// parkFull parks a full batch (len(items) == BatchMax) so that it forms
// one batch. Every item is registered as arriving before any is
// submitted, so the collector waits for the rest instead of flushing what
// it has taken so far. One extra arrival is held until all are submitted:
// it covers the last item between the end of its arrival and its parking.
// The batch then flushes because it is full.
func parkFull(t *testing.T, b *batcher, items ...*batchItem) {
	t.Helper()
	if len(items) != b.max {
		t.Fatalf("parkFull needs %d items, got %d", b.max, len(items))
	}
	b.arriving.Add(int64(len(items)) + 1)
	defer b.arriving.Add(-1)
	for _, it := range items {
		if !b.submit(it) {
			t.Fatal("submit refused")
		}
	}
}

// wantPerRequestQ asserts q is bit-identical to the per-request
// evaluator's answer for state.
func wantPerRequestQ(t *testing.T, s *Service, state, q []float64) {
	t.Helper()
	p := s.def.Policy()
	ev := p.acquire()
	defer p.release(ev)
	want, err := ev.QValues(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != len(want) {
		t.Fatalf("q has %d values, per-request path %d", len(q), len(want))
	}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q[%d] = %v, per-request path %v", i, q[i], want[i])
		}
	}
}

// Reaching BatchMax must flush immediately, long before the window.
func TestBatchMaxSizeFlush(t *testing.T) {
	s, _ := newTestService(t, Config{BatchWindow: 5 * time.Second, BatchMax: 4, Obs: obs.NewEmitter(nil)})
	defer s.Close()
	b := s.def.batch
	start := time.Now()
	items := make([]*batchItem, 4)
	for i := range items {
		items[i] = tenantItem([]float64{float64(i), 0, 0, 0}, true)
	}
	parkFull(t, b, items...)
	for i, it := range items {
		bo := <-it.out
		if bo.err != nil {
			t.Fatalf("item %d: %v", i, bo.err)
		}
		if bo.size != 4 {
			t.Errorf("item %d evaluated in batch of %d, want 4", i, bo.size)
		}
	}
	if time.Since(start) > time.Second {
		t.Error("max-size batch waited for the window instead of flushing")
	}
}

// A lone request with no peer on its way is flushed at once, not when the
// window expires, and takes the per-request fallthrough (batch size 1)
// with the exact per-request Q values.
func TestBatchLoneItemFlushesAtOnce(t *testing.T) {
	s, _ := newTestService(t, Config{BatchWindow: 5 * time.Second, BatchMax: 64, Obs: obs.NewEmitter(nil)})
	defer s.Close()
	state := []float64{0.3, -0.1, 0.8, 0.2}
	it := tenantItem(state, true)
	start := time.Now()
	park(t, s.def.batch, it)
	bo := <-it.out
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("lone item flushed after %v; it must not wait for the 5s window", elapsed)
	}
	if bo.err != nil {
		t.Fatal(bo.err)
	}
	if bo.size != 1 {
		t.Errorf("batch size %d, want 1", bo.size)
	}
	wantPerRequestQ(t, s, state, bo.q)
}

// While a peer is still on its way (registered as arriving but never
// submitted), a lone request waits for it — but only for the window,
// which still caps the wait. It then takes the per-request fallthrough
// (batch size 1) with the exact per-request Q values.
func TestBatchWindowExpiryAndSingleFallthrough(t *testing.T) {
	s, _ := newTestService(t, Config{BatchWindow: 20 * time.Millisecond, BatchMax: 64, Obs: obs.NewEmitter(nil)})
	defer s.Close()
	b := s.def.batch
	b.arriving.Add(1) // the peer that never arrives
	defer b.arriving.Add(-1)
	state := []float64{0.3, -0.1, 0.8, 0.2}
	it := tenantItem(state, true)
	start := time.Now()
	park(t, b, it)
	bo := <-it.out
	if bo.err != nil {
		t.Fatal(bo.err)
	}
	if bo.size != 1 {
		t.Errorf("batch size %d, want 1", bo.size)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("flush after %v, want ≈ the 20ms window", elapsed)
	}
	wantPerRequestQ(t, s, state, bo.q)
}

// An item whose state is stale for the current policy (the reload-
// mid-batch case: the checkpoint swapped to a different observation size
// between submit and flush) is answered with the per-request error text
// and must not poison the valid items sharing its batch.
func TestBatchMixedValidityItems(t *testing.T) {
	s, _ := newTestService(t, Config{BatchWindow: 5 * time.Second, BatchMax: 3, Obs: obs.NewEmitter(nil)})
	defer s.Close()
	good1 := tenantItem([]float64{0.1, 0.2, 0.3, 0.4}, true)
	bad := tenantItem([]float64{1, 2}, true) // wrong length for the 4-dim policy
	good2 := tenantItem([]float64{-0.4, 0.3, -0.2, 0.1}, true)
	parkFull(t, s.def.batch, good1, bad, good2)
	if bo := <-bad.out; bo.err == nil {
		t.Error("stale-shape item must error")
	} else if bo.err.Error() != "qnet: state has 2 features, model expects 4" {
		t.Errorf("error text %q must match the per-request path", bo.err)
	}
	for i, it := range []*batchItem{good1, good2} {
		if bo := <-it.out; bo.err != nil {
			t.Errorf("valid item %d rejected: %v", i, bo.err)
		} else if bo.size != 3 {
			t.Errorf("valid item %d batch size %d, want 3", i, bo.size)
		}
	}
}

// The golden batching contract over HTTP: answers from a batched service
// are byte-identical to the unbatched service over the same checkpoint —
// same actions, same Q bytes, request by request — even while real
// multi-request batches form (run with -race).
func TestBatchedByteIdenticalToUnbatched(t *testing.T) {
	em := obs.NewEmitter(nil)
	batched, ckpt := newTestService(t, Config{BatchWindow: 2 * time.Millisecond, BatchMax: 8, Pool: 8, Queue: 128, Obs: em})
	defer batched.Close()
	plain, err := New(Config{Checkpoint: ckpt, Obs: obs.NewEmitter(nil)})
	if err != nil {
		t.Fatal(err)
	}
	hBatched, hPlain := batched.Handler(), plain.Handler()

	r := rng.New(5)
	states := make([][]float64, 64)
	for i := range states {
		states[i] = []float64{r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1)}
	}
	want := make([]string, len(states))
	for i, st := range states {
		w := postPredict(hPlain, "/v1/predict", st)
		if w.Code != http.StatusOK {
			t.Fatalf("unbatched status %d", w.Code)
		}
		want[i] = w.Body.String()
	}

	got := make([]string, len(states))
	var wg sync.WaitGroup
	for i, st := range states {
		wg.Add(1)
		go func(i int, st []float64) {
			defer wg.Done()
			w := postPredict(hBatched, "/v1/predict", st)
			if w.Code != http.StatusOK {
				got[i] = fmt.Sprintf("status %d: %s", w.Code, w.Body)
				return
			}
			got[i] = w.Body.String()
		}(i, st)
	}
	wg.Wait()
	for i := range states {
		if got[i] != want[i] {
			t.Fatalf("state %d: batched %q != unbatched %q", i, got[i], want[i])
		}
	}
	// The concurrent burst must have produced at least one real batch.
	snap := em.Metrics().Snapshot()
	h := snap.Histograms[HistBatchSize]
	if h == nil || h.N == 0 {
		t.Fatal("no batch-size observations recorded")
	}
	if h.Max < 2 {
		t.Logf("warning: no multi-request batch formed (max %v); identity still holds", h.Max)
	}
}

// Close drains the collector: requests in flight when the drain begins
// and requests arriving afterwards are all answered — none dropped.
func TestBatchedDrainDropsNothing(t *testing.T) {
	s, _ := newTestService(t, Config{BatchWindow: 2 * time.Millisecond, BatchMax: 8, Pool: 8, Queue: 128, Obs: obs.NewEmitter(nil)})
	h := s.Handler()
	const n = 48
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postPredict(h, "/v1/predict", []float64{float64(i) / n, 0, 0, 0})
			codes <- w.Code
		}(i)
		if i == n/2 {
			s.Close() // drain mid-traffic
		}
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request dropped across drain: status %d", code)
		}
	}
	// Post-drain traffic still works (inline fallback) and Close is
	// idempotent.
	s.Close()
	if w := postPredict(h, "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
		t.Fatalf("post-drain status %d", w.Code)
	}
}

// Hot reload under concurrent batched traffic: zero failed requests,
// monotonic generations (run with -race).
func TestBatchedPredictDuringHotReload(t *testing.T) {
	s, ckpt := newTestService(t, Config{BatchWindow: time.Millisecond, BatchMax: 8, Pool: 8, Obs: obs.NewEmitter(nil)})
	defer s.Close()
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
	for i := 0; i < 10; i++ {
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
		t.Fatalf("request failed during batched reload: %s", e)
	default:
	}
}

// Multi-tenant routing: named policies resolve at /v1/t/{tenant}/*, each
// with its own network and generation; unknown tenants 404; with several
// tenants and no default, the bare routes refuse.
func TestTenantRouting(t *testing.T) {
	dir := t.TempDir()
	ckptA := filepath.Join(dir, "a.json")
	ckptB := filepath.Join(dir, "b.json")
	writeCheckpoint(t, ckptA, makeAgent(t, 8, 1))
	writeCheckpoint(t, ckptB, makeAgent(t, 16, 2))
	em := obs.NewEmitter(nil)
	s, err := New(Config{Policies: map[string]string{"alpha": ckptA, "beta": ckptB}, Obs: em})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	for name, hidden := range map[string]int{"alpha": 8, "beta": 16} {
		req := httptest.NewRequest(http.MethodGet, "/v1/t/"+name+"/info", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s info status %d", name, rec.Code)
		}
		var info struct {
			Info
			Tenant  string   `json:"tenant"`
			Tenants []string `json:"tenants"`
		}
		json.Unmarshal(rec.Body.Bytes(), &info)
		if info.Tenant != name || info.Hidden != hidden {
			t.Errorf("%s info %+v", name, info)
		}
		if len(info.Tenants) != 2 {
			t.Errorf("tenants list %v", info.Tenants)
		}
		if w := postPredict(h, "/v1/t/"+name+"/predict", []float64{0.1, 0.2, 0.3, 0.4}); w.Code != http.StatusOK {
			t.Errorf("%s predict status %d", name, w.Code)
		}
	}
	if w := postPredict(h, "/v1/t/nosuch/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusNotFound {
		t.Errorf("unknown tenant status %d", w.Code)
	}
	if w := postPredict(h, "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusNotFound {
		t.Errorf("bare route with no default tenant: status %d", w.Code)
	}
	// Tenant-labeled counters and generation gauges exist.
	snap := em.Metrics().Snapshot()
	if n := snap.Counter(obs.Labeled(MetricRequests, "tenant", "alpha")); n != 1 {
		t.Errorf("alpha labeled requests = %d, want 1", n)
	}
	if g := snap.Gauges[obs.Labeled(GaugeGeneration, "tenant", "beta")]; g != 1 {
		t.Errorf("beta labeled generation = %v", g)
	}

	// A single named policy also serves the bare routes.
	s2, err := New(Config{Policies: map[string]string{"only": ckptA}, Obs: obs.NewEmitter(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if w := postPredict(s2.Handler(), "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
		t.Errorf("single-tenant bare route status %d", w.Code)
	}
}

// Tenants hot-reload independently: reloading one leaves the other's
// generation untouched; ReloadAll bumps every tenant.
func TestTenantIndependentReload(t *testing.T) {
	dir := t.TempDir()
	ckptA := filepath.Join(dir, "a.json")
	ckptB := filepath.Join(dir, "b.json")
	writeCheckpoint(t, ckptA, makeAgent(t, 8, 1))
	writeCheckpoint(t, ckptB, makeAgent(t, 8, 2))
	em := obs.NewEmitter(nil)
	s, err := New(Config{Policies: map[string]string{"alpha": ckptA, "beta": ckptB}, Obs: em})
	if err != nil {
		t.Fatal(err)
	}
	alpha, _ := s.Tenant("alpha")
	beta, _ := s.Tenant("beta")
	writeCheckpoint(t, ckptA, makeAgent(t, 16, 3))
	if err := s.reloadTenant(alpha); err != nil {
		t.Fatal(err)
	}
	if g := alpha.Policy().Generation(); g != 2 {
		t.Errorf("alpha generation %d, want 2", g)
	}
	if g := beta.Policy().Generation(); g != 1 {
		t.Errorf("beta generation %d, want 1 after alpha-only reload", g)
	}
	if err := s.ReloadAll(); err != nil {
		t.Fatal(err)
	}
	if alpha.Policy().Generation() != 3 || beta.Policy().Generation() != 2 {
		t.Errorf("generations after ReloadAll: alpha %d beta %d",
			alpha.Policy().Generation(), beta.Policy().Generation())
	}
	snap := em.Metrics().Snapshot()
	if g := snap.Gauges[obs.Labeled(GaugeGeneration, "tenant", "alpha")]; g != 3 {
		t.Errorf("alpha labeled gauge %v", g)
	}
}

// A tenant over quota answers 429 with a refill-derived Retry-After while
// other tenants keep serving.
func TestTenantQuota(t *testing.T) {
	dir := t.TempDir()
	ckptA := filepath.Join(dir, "a.json")
	ckptB := filepath.Join(dir, "b.json")
	writeCheckpoint(t, ckptA, makeAgent(t, 8, 1))
	writeCheckpoint(t, ckptB, makeAgent(t, 8, 2))
	em := obs.NewEmitter(nil)
	s, err := New(Config{
		Policies: map[string]string{"alpha": ckptA, "beta": ckptB},
		Quotas:   map[string]float64{"alpha": 0.001}, // burst 1, ~no refill
		Obs:      em,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if w := postPredict(h, "/v1/t/alpha/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
		t.Fatalf("first alpha request status %d", w.Code)
	}
	w := postPredict(h, "/v1/t/alpha/predict", []float64{0, 0, 0, 0})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > maxRetryAfterSeconds {
		t.Errorf("quota Retry-After %q", w.Header().Get("Retry-After"))
	}
	// The unquota'd tenant is unaffected.
	for i := 0; i < 5; i++ {
		if w := postPredict(h, "/v1/t/beta/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
			t.Fatalf("beta request %d status %d", i, w.Code)
		}
	}
	snap := em.Metrics().Snapshot()
	if n := snap.Counter(MetricQuotaDenied); n != 1 {
		t.Errorf("serve_quota_denied = %d", n)
	}
	if n := snap.Counter(obs.Labeled(MetricQuotaDenied, "tenant", "alpha")); n != 1 {
		t.Errorf("labeled quota denials = %d", n)
	}
}

// The overload Retry-After hint scales with queue depth and the measured
// evaluation time, clamped to [1, 30].
func TestRetryAfterDerivation(t *testing.T) {
	s, _ := newTestService(t, Config{Pool: 1, Queue: -1, Obs: obs.NewEmitter(nil)})
	if ra := s.retryAfterSeconds(); ra != 1 {
		t.Errorf("cold Retry-After = %d, want 1", ra)
	}
	s.noteEvalMS(2500) // 2.5s per request, depth 0, pool 1 → ceil(2.5) = 3
	if ra := s.retryAfterSeconds(); ra != 3 {
		t.Errorf("Retry-After = %d, want 3", ra)
	}
	s.noteEvalMS(1e9) // absurd: clamps at the max
	if ra := s.retryAfterSeconds(); ra != maxRetryAfterSeconds {
		t.Errorf("Retry-After = %d, want %d", ra, maxRetryAfterSeconds)
	}

	// End to end: a shed response carries the derived header.
	em := obs.NewEmitter(nil)
	s2, _ := newTestService(t, Config{Pool: 1, Queue: -1, Timeout: 50 * time.Millisecond, Obs: em})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s2.testHookEval = func() {
		entered <- struct{}{}
		<-release
	}
	h := s2.Handler()
	go postPredict(h, "/v1/predict", []float64{0, 0, 0, 0})
	<-entered
	w := postPredict(h, "/v1/predict", []float64{0, 0, 0, 0})
	close(release)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d", w.Code)
	}
	if ra, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || ra < 1 || ra > maxRetryAfterSeconds {
		t.Errorf("shed Retry-After %q", w.Header().Get("Retry-After"))
	}
}

// Access events carry the tenant label and the batch size the request was
// evaluated in.
func TestAccessEventTenantAndBatchFields(t *testing.T) {
	sink := &memSink{}
	em := obs.NewEmitter(sink)
	s, _ := newTestService(t, Config{BatchWindow: time.Millisecond, BatchMax: 8, Obs: em, AccessLog: true})
	defer s.Close()
	if w := postPredict(s.Handler(), "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	evs := sink.byType(EventAccess)
	if len(evs) != 1 {
		t.Fatalf("access events = %d", len(evs))
	}
	if evs[0].Labels["tenant"] != DefaultTenant {
		t.Errorf("tenant label %q", evs[0].Labels["tenant"])
	}
	if evs[0].Data["batch"] < 1 {
		t.Errorf("batch field %v", evs[0].Data["batch"])
	}
}

// Every handleEval exit path leaves the tenant's arrival count exactly
// once. A leaked count would turn every later flush into a full-window
// wait; a double decrement would hide real arrivals from the collector.
func TestArrivalCountDoesNotLeak(t *testing.T) {
	dir := t.TempDir()
	ckptA := filepath.Join(dir, "a.json")
	ckptQ := filepath.Join(dir, "q.json")
	writeCheckpoint(t, ckptA, makeAgent(t, 8, 1))
	writeCheckpoint(t, ckptQ, makeAgent(t, 8, 2))
	s, err := New(Config{
		Policies:    map[string]string{"alpha": ckptA, "quota": ckptQ},
		Quotas:      map[string]float64{"quota": 0.001}, // burst 1, ~no refill
		Pool:        1,
		Queue:       1,
		Timeout:     50 * time.Millisecond,
		BatchWindow: 5 * time.Second,
		BatchMax:    8,
		Obs:         obs.NewEmitter(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	alpha, _ := s.Tenant("alpha")
	quota, _ := s.Tenant("quota")
	check := func(path string) {
		t.Helper()
		for _, tn := range []*Tenant{alpha, quota} {
			if n := tn.batch.arriving.Load(); n != 0 {
				t.Fatalf("after %s: tenant %s arriving = %d, want 0", path, tn.name, n)
			}
		}
	}
	expect := func(path string, w *httptest.ResponseRecorder, code int) {
		t.Helper()
		if w.Code != code {
			t.Fatalf("%s: status %d, want %d: %s", path, w.Code, code, w.Body)
		}
		check(path)
	}
	state := []float64{0.1, 0.2, 0.3, 0.4}

	expect("200", postPredict(h, "/v1/t/alpha/predict", state), http.StatusOK)

	req := httptest.NewRequest(http.MethodPost, "/v1/t/alpha/predict", strings.NewReader("{"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	expect("bad body", w, http.StatusBadRequest)

	expect("wrong width", postPredict(h, "/v1/t/alpha/predict", []float64{1, 2}), http.StatusBadRequest)

	// Hold the only worker: the next request waits in the one queue slot
	// until its budget expires (timeout 429), the one after finds the
	// queue full (shed 429).
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookEval = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}
	held := make(chan *httptest.ResponseRecorder, 1)
	go func() { held <- postPredict(h, "/v1/t/alpha/predict", state) }()
	<-entered
	timedOut := make(chan *httptest.ResponseRecorder, 1)
	go func() { timedOut <- postPredict(h, "/v1/t/alpha/predict", state) }()
	for len(s.queue) == 0 { // wait until it holds the queue slot
		time.Sleep(100 * time.Microsecond)
	}
	if w := postPredict(h, "/v1/t/alpha/predict", state); w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed: status %d", w.Code)
	}
	if w := <-timedOut; w.Code != http.StatusTooManyRequests {
		t.Fatalf("timeout: status %d", w.Code)
	}
	close(release)
	expect("shed, timeout and the held 200", <-held, http.StatusOK)
	snap := s.obs.Metrics().Snapshot()
	if snap.Counter(MetricShed) != 1 || snap.Counter(MetricTimeout) != 1 {
		t.Fatalf("shed=%d timeouts=%d, want 1 each", snap.Counter(MetricShed), snap.Counter(MetricTimeout))
	}

	expect("quota 200", postPredict(h, "/v1/t/quota/predict", state), http.StatusOK)
	expect("quota 429", postPredict(h, "/v1/t/quota/predict", state), http.StatusTooManyRequests)

	s.Close()
	expect("inline fallback after Close", postPredict(h, "/v1/t/alpha/predict", state), http.StatusOK)
}

// A panic in one tenant's batched evaluation costs that batch a 500 each
// and nothing else: the collector keeps serving the same tenant, the
// other tenant is untouched, and the panic is counted and booked against
// the availability SLO.
func TestBatchPanicIsolation(t *testing.T) {
	dir := t.TempDir()
	ckptA := filepath.Join(dir, "a.json")
	ckptB := filepath.Join(dir, "b.json")
	writeCheckpoint(t, ckptA, makeAgent(t, 8, 1))
	writeCheckpoint(t, ckptB, makeAgent(t, 8, 2))
	em := obs.NewEmitter(nil)
	eng := slo.NewEngine(slo.DefaultObjectives())
	s, err := New(Config{
		Policies:    map[string]string{"alpha": ckptA, "beta": ckptB},
		Pool:        4,
		BatchWindow: 5 * time.Second,
		BatchMax:    3,
		Obs:         em,
		SLO:         eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var panicked atomic.Bool
	s.testHookFlush = func(tn *Tenant) {
		if tn.name == "alpha" && panicked.CompareAndSwap(false, true) {
			panic("injected evaluation fault")
		}
	}
	// The first three alpha requests wait for each other after decode,
	// so they park together. A phantom arrival, held until all three are
	// answered, keeps the collector from flushing part of them: the batch
	// flushes because it is full.
	alpha, _ := s.Tenant("alpha")
	alpha.batch.arriving.Add(1)
	var barrier sync.WaitGroup
	barrier.Add(3)
	var entered atomic.Int32
	s.testHookEval = func() {
		if entered.Add(1) <= 3 {
			barrier.Done()
			barrier.Wait()
		}
	}
	h := s.Handler()
	state := []float64{0.1, 0.2, 0.3, 0.4}
	codes := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- postPredict(h, "/v1/t/alpha/predict", state).Code
		}()
	}
	wg.Wait()
	alpha.batch.arriving.Add(-1)
	close(codes)
	for code := range codes {
		if code != http.StatusInternalServerError {
			t.Fatalf("request in the panicking batch: status %d, want 500", code)
		}
	}
	for _, path := range []string{"/v1/t/alpha/predict", "/v1/t/beta/predict"} {
		if w := postPredict(h, path, state); w.Code != http.StatusOK {
			t.Fatalf("%s after the panic: status %d: %s", path, w.Code, w.Body)
		}
	}
	snap := em.Metrics().Snapshot()
	if n := snap.Counter(MetricPanics); n != 1 {
		t.Errorf("serve_panics = %d, want 1", n)
	}
	if n := snap.Counter(obs.Labeled(MetricPanics, "tenant", "alpha")); n != 1 {
		t.Errorf("alpha serve_panics = %d, want 1", n)
	}
	if h := snap.Histograms[obs.Labeled(HistBatchSize, "tenant", "alpha")]; h == nil || h.Max != 3 {
		t.Errorf("alpha batch sizes %+v, want the panicking batch of 3", h)
	}
	if n := snap.Counter(MetricErrors); n != 0 {
		t.Errorf("serve_errors = %d; a server fault is not a client error", n)
	}
	rep := eng.Report()
	if rep.ServerErrors != 3 || rep.OK != 2 {
		t.Errorf("slo outcomes %+v, want 3 server errors and 2 ok", rep)
	}
	if av := rep.Overall.Availability; av == nil || av.Bad != 3 {
		t.Errorf("server errors must consume availability budget: %+v", av)
	}
}

// A panicking flush answers each of its items exactly once: items it had
// already answered (a stale-width item) keep their answer, the rest get
// the internal error.
func TestBatchPanicAnswersEachItemOnce(t *testing.T) {
	s, _ := newTestService(t, Config{BatchWindow: 5 * time.Second, BatchMax: 3, Obs: obs.NewEmitter(nil)})
	defer s.Close()
	s.testHookFlush = func(*Tenant) { panic("injected evaluation fault") }
	good1 := tenantItem([]float64{0.1, 0.2, 0.3, 0.4}, true)
	bad := tenantItem([]float64{1, 2}, true)
	good2 := tenantItem([]float64{-0.4, 0.3, -0.2, 0.1}, true)
	parkFull(t, s.def.batch, good1, bad, good2)
	if bo := <-bad.out; bo.err == nil || errors.Is(bo.err, errEvalPanic) {
		t.Errorf("stale-width item answered %v, want its own width error", bo.err)
	}
	for i, it := range []*batchItem{good1, good2} {
		if bo := <-it.out; !errors.Is(bo.err, errEvalPanic) {
			t.Errorf("item %d answered %v, want errEvalPanic", i, bo.err)
		}
	}
	s.Close() // no flush can run after this
	for i, it := range []*batchItem{good1, bad, good2} {
		if len(it.out) != 0 {
			t.Errorf("item %d answered twice", i)
		}
	}
}
