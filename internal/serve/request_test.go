package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"oselmrl/internal/rng"
)

// reusedRecorder is an http.ResponseWriter reset between requests, so a
// loop of requests measures the handler and not the recorder.
type reusedRecorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *reusedRecorder) Header() http.Header { return r.h }

func (r *reusedRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *reusedRecorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// requestRig drives one tenant's Handler() in process with one reused
// request and recorder, the way a closed-loop client calls it.
type requestRig struct {
	h     http.Handler
	req   http.Request
	body  reusedBody
	rec   reusedRecorder
	state []byte
	urls  map[string]*url.URL
}

// newRequestRig serves a 64-unit CartPole-shaped policy as tenant
// "paper", inline (window 0) or micro-batched, with observability off.
func newRequestRig(tb testing.TB, window time.Duration) *requestRig {
	tb.Helper()
	ckpt := filepath.Join(tb.TempDir(), "paper.json")
	writeCheckpoint(tb, ckpt, makeAgent(tb, 64, 1))
	s, err := New(Config{Policies: map[string]string{"paper": ckpt}, BatchWindow: window, BatchMax: 8})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	r := rng.New(3)
	body, err := json.Marshal(evalRequest{State: []float64{
		r.Uniform(-0.05, 0.05), r.Uniform(-0.5, 0.5), r.Uniform(-0.05, 0.05), r.Uniform(-0.5, 0.5)}})
	if err != nil {
		tb.Fatal(err)
	}
	rig := &requestRig{h: s.Handler(), state: body, urls: map[string]*url.URL{
		"act":     {Path: "/v1/t/paper/act"},
		"predict": {Path: "/v1/t/paper/predict"},
	}}
	rig.req = http.Request{Method: http.MethodPost, Header: http.Header{}, Body: &rig.body,
		Host: "serve", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	rig.rec.h = http.Header{}
	return rig
}

// serve sends the body to op ("act" or "predict") and reports the status.
func (rig *requestRig) serve(op string) int {
	rig.body.Reset(rig.state)
	rig.req.URL = rig.urls[op]
	rig.req.ContentLength = int64(len(rig.state))
	clear(rig.rec.h)
	rig.rec.code = 0
	rig.rec.body.Reset()
	rig.h.ServeHTTP(&rig.rec, &rig.req)
	return rig.rec.code
}

// BenchmarkServeRequest measures one request through Handler(): routing,
// admission, decode, evaluation, encode and the timing header.
func BenchmarkServeRequest(b *testing.B) {
	for _, mode := range []struct {
		name   string
		window time.Duration
	}{{"inline", 0}, {"batched", 500 * time.Microsecond}} {
		for _, op := range []string{"act", "predict"} {
			b.Run(mode.name+"/"+op, func(b *testing.B) {
				rig := newRequestRig(b, mode.window)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if code := rig.serve(op); code != http.StatusOK {
						b.Fatalf("status %d: %s", code, rig.rec.body.Bytes())
					}
				}
			})
		}
	}
}

// requestAllocBudget bounds the allocations of one inline request with
// observability off. It measures 3: the body's http.MaxBytesReader, and
// the Server-Timing value and its header slice.
const requestAllocBudget = 3

// TestRequestPathAllocs gates the inline request path's allocations: the
// body buffer, the decoded state, the evaluator and the encoded answer are
// all reused from request to request.
func TestRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under the race detector")
	}
	rig := newRequestRig(t, 0)
	for _, op := range []string{"act", "predict"} {
		var code int
		allocs := testing.AllocsPerRun(1000, func() { code = rig.serve(op) })
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", op, code, rig.rec.body.Bytes())
		}
		if allocs > requestAllocBudget {
			t.Errorf("%s: %v allocations per request, budget %d", op, allocs, requestAllocBudget)
		}
	}
}

// timingValues masks the durations in a Server-Timing header, which
// differ from request to request.
var timingValues = regexp.MustCompile(`dur=[0-9.]+`)

// TestDispatchMatchesMux: the route table answers every request exactly as
// the mux alone does (status, headers and body), for the paths it serves
// and for those it must leave to the mux.
func TestDispatchMatchesMux(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	for i, name := range []string{"alpha", "..", "a b"} {
		paths[name] = filepath.Join(dir, fmt.Sprintf("%d.json", i))
		writeCheckpoint(t, paths[name], makeAgent(t, 8, uint64(i+1)))
	}
	def := filepath.Join(dir, "default.json")
	writeCheckpoint(t, def, makeAgent(t, 8, 9))
	s, err := New(Config{Checkpoint: def, Policies: paths})
	if err != nil {
		t.Fatal(err)
	}
	fast, mux := s.Handler(), http.Handler(s.mux())
	body := `{"state":[0.1,-0.2,0.3,0.4]}`
	for _, tc := range []struct{ method, target string }{
		{"POST", "/v1/t/alpha/predict"},
		{"POST", "/v1/t/alpha/act"},
		{"POST", "/v1/predict"},
		{"POST", "/v1/act"},
		{"POST", "/v1/t/a%20b/act"},
		{"POST", "//v1/t/alpha/predict"},
		{"POST", "/v1//t/alpha/predict"},
		{"POST", "/v1/t/./alpha/predict"},
		{"POST", "/v1/t/alpha/./act"},
		{"POST", "/v1/t/x/../alpha/predict"},
		{"POST", "/v1/t/../predict"},
		{"POST", "/v1/t/al%70ha/predict"},
		{"POST", "/v1/t/alpha%2Fpredict"},
		{"POST", "/v1%2Fpredict"},
		{"POST", "/v1/t%2Falpha/act"},
		{"POST", "/v1/t/alpha/predict/"},
		{"POST", "/v1/t/alpha/predict?x=1"},
		{"POST", "/v1/t/nosuch/predict"},
		{"POST", "/v1/t/alpha/frob"},
		{"POST", "/v1/t/alpha"},
		{"POST", "/v1/t"},
		{"POST", "/v2/predict"},
		{"GET", "/v1/t/alpha/info"},
		{"GET", "/v1/info"},
		{"GET", "/v1/t/alpha/predict"},
		{"GET", "/v1/predict"},
		{"CONNECT", "/v1/t/alpha/predict"},
		{"CONNECT", "/v1//predict"},
	} {
		var got, want *httptest.ResponseRecorder
		for _, h := range []struct {
			h   http.Handler
			rec **httptest.ResponseRecorder
		}{{fast, &got}, {mux, &want}} {
			*h.rec = httptest.NewRecorder()
			h.h.ServeHTTP(*h.rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(body)))
		}
		header := func(r *httptest.ResponseRecorder) string {
			h := r.Header().Clone()
			if st := h.Get("Server-Timing"); st != "" {
				h.Set("Server-Timing", timingValues.ReplaceAllString(st, "dur=#"))
			}
			return fmt.Sprint(h)
		}
		if got.Code != want.Code || header(got) != header(want) || got.Body.String() != want.Body.String() {
			t.Errorf("%s %s: %d %s %q, mux alone %d %s %q", tc.method, tc.target,
				got.Code, header(got), got.Body, want.Code, header(want), want.Body)
		}
	}
}
