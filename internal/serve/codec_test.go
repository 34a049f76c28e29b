package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"oselmrl/internal/rng"
)

// splitReader serves body in chunks of chunk bytes (all at once when
// chunk is 0) and, when failAt ≥ 0, fails with errRead once failAt bytes
// have been read.
type splitReader struct {
	body   []byte
	chunk  int
	failAt int
	off    int
}

var errRead = errors.New("connection reset by peer")

func (r *splitReader) Read(p []byte) (int, error) {
	end := len(r.body)
	if r.failAt >= 0 && r.failAt < end {
		end = r.failAt
	}
	if r.off >= end {
		if end < len(r.body) {
			return 0, errRead
		}
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), end-r.off)], r.body[r.off:end])
	if r.chunk > 0 {
		n = min(n, r.chunk)
	}
	r.off += n
	return n, nil
}

// longBody is a canonical body longer than the pooled body buffer.
func longBody() []byte {
	var b strings.Builder
	b.WriteString(`{"state":[`)
	for i := 0; b.Len() <= bodyBufSize; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d.25", i)
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// FuzzDecodeEval: the request decoder and encoding/json decide every body
// the same way — the same accept or reject, bit-identical state values
// (so -0 stays apart from 0) and the same error text — however the body's
// reads are split and wherever a read error cuts it off.
func FuzzDecodeEval(f *testing.F) {
	for _, body := range []string{
		`{"state":[0.1,-0.2,0.3,0]}`,
		` { "state" : [ 1 , 2.5e3 , -0.125E-2 ] } `,
		"\t{\n\"state\":\r[1,2]}\n",
		`{"state":[]}`,
		`{"state":[-0]}`,
		`{"state":[-0.0,0e0]}`,
		`{"state":[1e308,-1.7976931348623157e308]}`,
		`{"state":[1e400]}`,
		`{"state":[-1e400]}`,
		`{"state":[5e-324,2.2250738585072014e-308,1e-400]}`,
		`{"state":[0.30000000000000004,123456789012345678901234567890]}`,
		`{"State":[1,2]}`,
		`{"STATE":[1,2]}`,
		`{"ſtate":[1]}`,
		`{"state":[1]}`,
		`{"state":[1],"state":[2]}`,
		`{"state":[1],"other":true}`,
		`{"other":1,"state":[3]}`,
		`{"state":[1]}garbage`,
		`{"state":[1]} {"state":[2]}`,
		`{"state":[1]}}`,
		`null`,
		`[]`,
		`{}`,
		`{"state":null}`,
		`{"state":[null]}`,
		`{"state":["1"]}`,
		`{"state":[01]}`,
		`{"state":[1.]}`,
		`{"state":[.5]}`,
		`{"state":[+1]}`,
		`{"state":[1e]}`,
		`{"state":[1,]}`,
		`{"state":[1 2]}`,
		`{"state":[NaN]}`,
		`{"state":[0x10]}`,
		`{"state":[1_0]}`,
		`{"state":{}}`,
		`{"state":[1]`,
		`{"state":`,
		``,
		` `,
		"\ufeff{\"state\":[1]}",
		string(longBody()),
	} {
		f.Add([]byte(body), uint8(0), int16(-1))
	}
	f.Add([]byte(`{"state":[0.1,-0.2,0.3,0]}`), uint8(1), int16(-1))
	f.Add([]byte(`{"state":[0.1,-0.2,0.3,0]}`), uint8(3), int16(10))
	f.Add([]byte(`{"state":[0.1,-0.2,0.3,0]}  `), uint8(0), int16(26))
	f.Add(longBody(), uint8(0), int16(5000))
	f.Add(longBody(), uint8(7), int16(-1))
	f.Fuzz(func(t *testing.T, body []byte, chunk uint8, failAt int16) {
		open := func() io.Reader { return &splitReader{body: body, chunk: int(chunk), failAt: int(failAt)} }
		var want evalRequest
		wantErr := json.NewDecoder(open()).Decode(&want)
		rb := &reqBuf{body: make([]byte, 0, bodyBufSize)}
		got, gotErr := rb.decodeState(open())
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if len(got) != len(want.State) {
			t.Fatalf("body %q: state %v, encoding/json %v", body, got, want.State)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want.State[i]) {
				t.Fatalf("body %q: state[%d] = %v, encoding/json %v", body, i, got[i], want.State[i])
			}
		}
	})
}

// Canonical bodies — what json.Marshal writes for a state, with or
// without whitespace — take the scanner, not the encoding/json fallback.
func TestScanStateTakesCanonicalBodies(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		state := make([]float64, 1+i%8)
		for j := range state {
			state[j] = r.Uniform(-3, 3) * math.Pow(10, float64(r.Intn(40)-20))
		}
		body, err := json.Marshal(evalRequest{State: state})
		if err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, " ", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{body, indented.Bytes()} {
			got, ok := scanState(nil, b)
			if !ok {
				t.Fatalf("scanner rejects %s", b)
			}
			for j := range state {
				if math.Float64bits(got[j]) != math.Float64bits(state[j]) {
					t.Fatalf("%s: state[%d] = %v, want %v", b, j, got[j], state[j])
				}
			}
		}
	}
	rb := &reqBuf{body: make([]byte, 0, bodyBufSize)}
	if _, err := rb.decodeState(iotest.OneByteReader(strings.NewReader(`{"state":[1,2]}`))); err != nil || len(rb.state) != 2 {
		t.Errorf("a body read one byte at a time: err %v, scanned state %v", err, rb.state)
	}
}

// appendEvalResponse writes the bytes json.Encoder writes, for the float
// values on each side of every format switch and both omitempty cases.
func TestAppendEvalResponseMatchesEncodingJSON(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), -1e-6, 1e-7, -1.5e-7, 1.25e-10,
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20,
		math.MaxFloat64, -math.MaxFloat64, 0.1, -0.30000000000000004, 123456.789, 1, -2, 1e300, 1e-300,
	}
	r := rng.New(9)
	for i := 0; i < 500; i++ {
		values = append(values, math.Float64frombits(r.Uint64()))
	}
	cases := []evalResponse{
		{Action: 0, Generation: 1},
		{Action: 3, Q: []float64{}, Generation: 12},
		{Action: -1, Q: []float64{1}, Generation: -7},
		{Action: math.MaxInt, Generation: math.MinInt},
	}
	for _, v := range values {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			cases = append(cases, evalResponse{Action: 1, Q: []float64{v, -v}, Generation: 2})
		}
	}
	for _, resp := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendEvalResponse(nil, resp); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%+v: appended %q, encoding/json %q", resp, got, want.Bytes())
		}
	}
}

// writeEval answers like writeJSON, non-finite Q values included.
func TestWriteEvalMatchesWriteJSON(t *testing.T) {
	for _, resp := range []evalResponse{
		{Action: 1, Q: []float64{0.5, 2}, Generation: 3},
		{Action: 0, Generation: 1},
		{Action: 0, Q: []float64{math.NaN(), 1}, Generation: 1},
		{Action: 1, Q: []float64{1, math.Inf(1)}, Generation: 1},
	} {
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, http.StatusOK, resp)
		writeEval(got, &reqBuf{}, resp)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
			fmt.Sprint(got.Header()) != fmt.Sprint(want.Header()) {
			t.Errorf("%+v: %d %v %q, writeJSON %d %v %q", resp, got.Code, got.Header(), got.Body,
				want.Code, want.Header(), want.Body)
		}
	}
}

// appendFixed4 writes %.4f's text: exact half-way cases (odd multiples of
// 1/32 at every scale) round to even, and values past its exact range
// fall through to strconv.
func TestAppendFixed4MatchesPercentF(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0.00005, 0.000049999999999999996,
		0.99995, 9.99995, 1 << 49, 1<<50 - 0.5, 1 << 50, 1e17, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}
	for j := 1; j < 2000; j += 2 {
		for _, scale := range []float64{1, 0x1p-7, 0x1p10, 0x1p30} {
			values = append(values, float64(j)/32*scale)
		}
	}
	r := rng.New(11)
	for i := 0; i < 20000; i++ {
		values = append(values, math.Float64frombits(r.Uint64()),
			r.Uniform(0, 1)*math.Pow(10, float64(r.Intn(24)-8)))
	}
	for _, v := range values {
		want := fmt.Sprintf("%.4f", v)
		if got := string(appendFixed4(nil, v)); got != want {
			t.Errorf("appendFixed4(%v) = %q, %%.4f %q", v, got, want)
		}
	}
}

// The Server-Timing value is the Sprintf text it replaces.
func TestServerTimingMatchesSprintf(t *testing.T) {
	for _, rq := range []request{
		{queueMS: 0.0012345},
		{queueMS: 0.00004, evalMS: 0.01625, evaluated: true},
		{queueMS: 1234.56789, evalMS: 0.5, evaluated: true},
	} {
		want := fmt.Sprintf("queue;dur=%.4f", rq.queueMS)
		if rq.evaluated {
			want = fmt.Sprintf("queue;dur=%.4f, eval;dur=%.4f", rq.queueMS, rq.evalMS)
		}
		if got := string(appendServerTiming(nil, &rq)); got != want {
			t.Errorf("Server-Timing %q, want %q", got, want)
		}
	}
}
