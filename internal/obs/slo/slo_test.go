package slo

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for deterministic window
// rotation.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestEngine(obj Objectives) (*Engine, *fakeClock) {
	e := NewEngine(obj)
	c := newFakeClock()
	e.SetClock(c.now)
	return e, c
}

func TestBurnRateMath(t *testing.T) {
	e, _ := newTestEngine(Objectives{LatencyP99MS: 10, Availability: 0.999})
	// 100 OK requests, 2 slow (2% bad against a 1% latency budget →
	// burn 2), plus 1 shed in 1000 eligible → availability burn exactly 1.
	for i := 0; i < 98; i++ {
		e.Record(OK, 0.1, 0.2, 0.5)
	}
	e.Record(OK, 0.1, 0.2, 50) // slow
	e.Record(OK, 0.1, 0.2, 11) // slow
	rep := e.Report()
	if rep.Requests != 100 || rep.OK != 100 || rep.SlowRequests != 2 {
		t.Fatalf("counts: %+v", rep)
	}
	lat := rep.Window5m.Latency
	if lat == nil || lat.Requests != 100 || lat.Bad != 2 {
		t.Fatalf("latency burn: %+v", lat)
	}
	if got, want := lat.Rate, 0.02/0.01; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("latency burn rate = %g, want %g", got, want)
	}
	av := rep.Window5m.Availability
	if av == nil || av.Rate != 0 {
		t.Fatalf("availability burn: %+v", av)
	}

	e.Record(Shed, 0.3, 0, 0.3)
	rep = e.Report()
	av = rep.Window5m.Availability
	if av.Requests != 101 || av.Bad != 1 {
		t.Fatalf("availability after shed: %+v", av)
	}
	wantRate := (1.0 / 101.0) / (1 - 0.999)
	if diff := av.Rate - wantRate; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("availability burn = %g, want %g", av.Rate, wantRate)
	}
	if rep.Shed != 1 {
		t.Errorf("shed = %d", rep.Shed)
	}
}

func TestClientErrorsConsumeNoBudget(t *testing.T) {
	e, _ := newTestEngine(DefaultObjectives())
	for i := 0; i < 50; i++ {
		e.Record(ClientError, 0.1, 0.1, 0.2)
	}
	rep := e.Report()
	if rep.ClientErrors != 50 {
		t.Fatalf("client errors = %d", rep.ClientErrors)
	}
	if av := rep.Window5m.Availability; av.Requests != 0 || av.Rate != 0 {
		t.Errorf("client errors must not enter the availability denominator: %+v", av)
	}
}

func TestServerErrorsConsumeBudget(t *testing.T) {
	e, _ := newTestEngine(DefaultObjectives())
	for i := 0; i < 9; i++ {
		e.Record(OK, 0.1, 0.1, 0.2)
	}
	e.Record(ServerError, 0.1, 0.3, 0.5)
	rep := e.Report()
	if rep.ServerErrors != 1 || rep.OK != 9 {
		t.Fatalf("outcomes: %+v", rep)
	}
	for name, av := range map[string]*Burn{"5m": rep.Window5m.Availability, "overall": rep.Overall.Availability} {
		if av == nil || av.Requests != 10 || av.Bad != 1 {
			t.Errorf("%s: a server error must consume availability budget: %+v", name, av)
		}
	}
	if rep.EvalMS.N != 10 {
		t.Errorf("eval distribution has %d samples; a server error reached evaluation", rep.EvalMS.N)
	}
}

func TestQuantileSplit(t *testing.T) {
	e, _ := newTestEngine(DefaultObjectives())
	for i := 0; i < 100; i++ {
		e.Record(OK, 2, 8, 10.5)
	}
	rep := e.Report()
	if rep.QueueMS.N != 100 || rep.EvalMS.N != 100 || rep.TotalMS.N != 100 {
		t.Fatalf("distribution sizes: %+v", rep)
	}
	if rep.QueueMS.P99MS <= 0 || rep.QueueMS.P99MS > 2.5 {
		t.Errorf("queue p99 = %g", rep.QueueMS.P99MS)
	}
	if rep.EvalMS.P99MS < 5 || rep.EvalMS.P99MS > 10 {
		t.Errorf("eval p99 = %g", rep.EvalMS.P99MS)
	}
	if rep.TotalMS.MaxMS != 10.5 {
		t.Errorf("total max = %g", rep.TotalMS.MaxMS)
	}
}

// Window rotation: data older than the window span must stop
// contributing to that window's burn rate.
func TestWindowRotationExpiresOldData(t *testing.T) {
	e, c := newTestEngine(Objectives{LatencyP99MS: 1})
	for i := 0; i < 100; i++ {
		e.Record(OK, 0.1, 0.2, 50) // all slow: burn 100 on both windows
	}
	if b := e.Report().Window5m.Latency; b.Rate < 99 {
		t.Fatalf("pre-rotation 5m burn = %g", b.Rate)
	}
	if !e.FastBurn() {
		t.Fatal("expected fast burn with every request slow")
	}

	// Past the 5m window the short burn clears while the 1h window still
	// remembers — so the page condition (both windows) clears too.
	c.advance(6 * time.Minute)
	rep := e.Report()
	if b := rep.Window5m.Latency; b.Requests != 0 || b.Rate != 0 {
		t.Errorf("5m window after 6m: %+v", b)
	}
	if b := rep.Window1h.Latency; b.Requests != 100 || b.Rate < 99 {
		t.Errorf("1h window after 6m: %+v", b)
	}
	if e.FastBurn() {
		t.Error("fast burn must clear once the short window empties")
	}

	c.advance(time.Hour)
	rep = e.Report()
	if b := rep.Window1h.Latency; b.Requests != 0 {
		t.Errorf("1h window after 66m: %+v", b)
	}
	// Lifetime accounting is unaffected by rotation.
	if rep.Requests != 100 || rep.SlowRequests != 100 {
		t.Errorf("lifetime counts after rotation: %+v", rep)
	}
	if b := rep.Overall.Latency; b == nil || b.Rate < 99 {
		t.Errorf("overall burn must persist: %+v", rep.Overall.Latency)
	}
}

// Ring reuse: advancing exactly one window span maps new data onto the
// same slots; stale epochs must be zeroed, not accumulated.
func TestWindowRingReuse(t *testing.T) {
	e, c := newTestEngine(Objectives{LatencyP99MS: 1})
	e.Record(OK, 0, 0, 100)
	c.advance(ShortWindow)
	e.Record(OK, 0, 0, 100)
	if b := e.Report().Window5m.Latency; b.Requests != 1 || b.Bad != 1 {
		t.Errorf("reused slot must hold only the new epoch: %+v", b)
	}
}

func TestFastBurnNeedsMinimumPopulation(t *testing.T) {
	e, _ := newTestEngine(Objectives{LatencyP99MS: 1})
	for i := 0; i < int(MinWindowRequests)-1; i++ {
		e.Record(OK, 0.1, 0.2, 50)
	}
	if e.FastBurn() {
		t.Fatal("fast burn below the minimum window population")
	}
	e.Record(OK, 0.1, 0.2, 50)
	if !e.FastBurn() {
		t.Fatal("fast burn expected at the minimum window population")
	}
	if rep := e.Report(); !rep.FastBurn || len(rep.Breached) != 1 || rep.Breached[0] != "latency" {
		t.Fatalf("report verdict: %+v", rep.Breached)
	}
}

func TestGateBreaches(t *testing.T) {
	e, _ := newTestEngine(Objectives{LatencyP99MS: 1, Availability: 0.5})
	for i := 0; i < 10; i++ {
		e.Record(OK, 0.1, 0.2, 0.5) // fast, fine
	}
	if br := GateBreaches(e.Report()); len(br) != 0 {
		t.Fatalf("healthy run breached: %v", br)
	}
	for i := 0; i < 10; i++ {
		e.Record(OK, 0.1, 0.2, 50)
	}
	br := GateBreaches(e.Report())
	if len(br) != 1 || br[0] != "latency" {
		t.Fatalf("breaches = %v, want [latency]", br)
	}
}

func TestDisabledObjectives(t *testing.T) {
	e, _ := newTestEngine(Objectives{})
	e.Record(OK, 0.1, 0.2, 1e9)
	e.Record(Shed, 0.1, 0, 0.1)
	rep := e.Report()
	if rep.Window5m.Latency != nil || rep.Window5m.Availability != nil {
		t.Errorf("disabled objectives must not report burns: %+v", rep.Window5m)
	}
	if e.FastBurn() {
		t.Error("fast burn with no objectives")
	}
	if rep.Requests != 2 {
		t.Errorf("RED accounting must still run: %+v", rep)
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Record(OK, 1, 2, 3) // must not panic
	e.SetClock(time.Now)
	e.SetFastBurn(1, 1)
	if e.FastBurn() || e.Enabled() {
		t.Error("nil engine must be inert")
	}
	if rep := e.Report(); rep.Requests != 0 {
		t.Errorf("nil report: %+v", rep)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Record(OK, 0.1, 0.2, 0.3)
	}); allocs != 0 {
		t.Errorf("nil Record allocates %v/op", allocs)
	}
}

func TestEnabledRecordDoesNotAllocate(t *testing.T) {
	e, _ := newTestEngine(DefaultObjectives())
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Record(OK, 0.1, 0.2, 0.3)
	}); allocs != 0 {
		t.Errorf("Record allocates %v/op", allocs)
	}
}

// Concurrent recording while the clock advances across bucket
// boundaries: run under -race this is the window-rotation data-race
// test; the final lifetime totals must also be exact.
func TestConcurrentRecordAndRotate(t *testing.T) {
	e, c := newTestEngine(DefaultObjectives())
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					e.Record(OK, 0.1, 0.2, 0.4)
				case 1:
					e.Record(OK, 5, 0.2, 200) // slow
				default:
					e.Record(Shed, 2, 0, 2)
				}
				if i%100 == 0 {
					e.Report()
					e.FastBurn()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.advance(7 * time.Second) // crosses 10s and 60s bucket edges
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	rep := e.Report()
	if want := int64(workers * perWorker); rep.Requests != want {
		t.Fatalf("requests = %d, want %d", rep.Requests, want)
	}
	// Per worker over i = 0..1999: i%3==1 hits 667 times, i%3==2 666.
	if wantSlow := int64(workers * 667); rep.SlowRequests != wantSlow {
		t.Errorf("slow = %d, want %d", rep.SlowRequests, wantSlow)
	}
	if wantShed := int64(workers * 666); rep.Shed != wantShed {
		t.Errorf("shed = %d, want %d", rep.Shed, wantShed)
	}
}
