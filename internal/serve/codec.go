package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The predict/act wire codec. The body every client sends has one shape,
// {"state":[n, …]}, and every 200 answer has one shape; both are handled
// here without encoding/json's reflection. Any other body is decoded by
// encoding/json over the same bytes, so the accepted set, the decoded
// values and the error texts are encoding/json's by construction.

// bodyBufSize is the pooled body buffer; a longer body is decoded by
// encoding/json, reading on where the buffer stopped.
const bodyBufSize = 4 << 10

// reqBuf is one request's pooled scratch: its buffered body, its decoded
// state and its encoded response. The state stays in use until the
// request's evaluation is answered, batched or inline.
type reqBuf struct {
	body  []byte
	state []float64
	out   []byte
}

var reqBufs = sync.Pool{New: func() any {
	return &reqBuf{body: make([]byte, 0, bodyBufSize)}
}}

// jsonContentType is shared by every JSON response: assigning it to the
// header map saves Header.Set's per-call slice. net/http only reads it.
var jsonContentType = []string{"application/json"}

// decodeState reads one request body and returns its state, with the
// outcome json.NewDecoder(body).Decode(&evalRequest{}) has. A body that
// ends within the buffer and is exactly the canonical shape is scanned in
// place. Anything else goes to encoding/json over the buffered bytes,
// followed by the unread rest of the body or the read error that stopped
// the buffering. The decoder scans the data it holds before acting on a
// read error, so its outcome does not depend on how the reads were split.
func (rb *reqBuf) decodeState(body io.Reader) ([]float64, error) {
	b := rb.body[:0]
	var err error
	for len(b) < cap(b) && err == nil {
		var n int
		n, err = body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	rb.body = b
	if err == io.EOF {
		if st, ok := scanState(rb.state[:0], b); ok {
			rb.state = st
			return st, nil
		}
	}
	var r io.Reader = bytes.NewReader(b)
	switch {
	case err == nil: // the buffer filled before the body ended
		r = io.MultiReader(r, body)
	case err != io.EOF:
		r = io.MultiReader(r, errReader{err})
	}
	var req evalRequest
	err = json.NewDecoder(r).Decode(&req)
	return req.State, err
}

// errReader replays the read error that ended the buffering.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanState parses b when it is exactly {"state":[n, …]} between optional
// JSON whitespace, each n a JSON number in float64 range, and appends the
// numbers to dst. strconv.ParseFloat is what encoding/json runs on a
// float64 literal, so the values are bit-identical to its. ok is false
// for any other input.
func scanState(dst []float64, b []byte) (_ []float64, ok bool) {
	s := scanner{b: b}
	if !s.eat("{") || !s.eat(`"state"`) || !s.eat(":") || !s.eat("[") {
		return dst, false
	}
	if !s.eat("]") {
		for {
			s.space()
			start := s.i
			if !s.number() {
				return dst, false
			}
			v, err := strconv.ParseFloat(string(b[start:s.i]), 64)
			if err != nil {
				return dst, false
			}
			dst = append(dst, v)
			if s.eat("]") {
				break
			}
			if !s.eat(",") {
				return dst, false
			}
		}
	}
	if !s.eat("}") {
		return dst, false
	}
	s.space()
	return dst, s.i == len(b)
}

// scanner walks the canonical request body.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and then lit, reporting whether lit was there.
func (s *scanner) eat(lit string) bool {
	s.space()
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// number skips one number of JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, reporting whether one
// started at the cursor.
func (s *scanner) number() bool {
	s.skip('-')
	switch {
	case s.skip('0'):
	case s.i < len(s.b) && '1' <= s.b[s.i] && s.b[s.i] <= '9':
		s.digits()
	default:
		return false
	}
	if s.skip('.') && s.digits() == 0 {
		return false
	}
	if s.skip('e') || s.skip('E') {
		if !s.skip('+') {
			s.skip('-')
		}
		if s.digits() == 0 {
			return false
		}
	}
	return true
}

// skip steps over c if it is next.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits steps over a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// appendEvalResponse appends resp as json.Encoder writes it, trailing
// newline included: q is omitted when empty (omitempty), and every Q
// value must be finite.
func appendEvalResponse(b []byte, resp evalResponse) []byte {
	b = append(b, `{"action":`...)
	b = strconv.AppendInt(b, int64(resp.Action), 10)
	if len(resp.Q) > 0 {
		b = append(b, `,"q":[`...)
		for i, q := range resp.Q {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, q)
		}
		b = append(b, ']')
	}
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, int64(resp.Generation), 10)
	return append(b, "}\n"...)
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest 'f' form, or 'e' when |f| < 1e-6 or |f| ≥ 1e21, with a
// two-digit negative exponent's leading zero dropped (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// writeEval writes the 200 answer from rb's pooled buffer. A non-finite Q
// value goes through writeJSON, keeping encoding/json's answer to it.
func writeEval(w http.ResponseWriter, rb *reqBuf, resp evalResponse) {
	for _, q := range resp.Q {
		if math.IsInf(q, 0) || math.IsNaN(q) {
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	rb.out = appendEvalResponse(rb.out[:0], resp)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(rb.out)
}

// appendFixed4 appends f as fmt's %.4f writes it: f rounded to four
// decimals, half to even, from its exact binary value. strconv reaches
// that rounding through its multiprecision decimal for an 'f' format at a
// fixed precision; here f·10⁴ is computed exactly in 64 bits instead, for
// every |f| below 2⁵⁰, which covers any latency in milliseconds. Larger and
// non-finite values take strconv's path, whose text %.4f is.
func appendFixed4(b []byte, f float64) []byte {
	if !(math.Abs(f) < 1<<50) {
		return strconv.AppendFloat(b, f, 'f', 4, 64)
	}
	if math.Signbit(f) {
		b = append(b, '-')
		f = -f
	}
	fb := math.Float64bits(f)
	exp, mant := int(fb>>52), fb&(1<<52-1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	// f = mant/2^(1075-exp) and 10⁴ = 625·2⁴, so f·10⁴ = p/2^s with
	// p < 2⁶³ and, as f < 2⁵⁰, s ≥ -1.
	p, s := mant*625, 1075-exp-4
	var q uint64 // f·10⁴ rounded half to even; 0 when s ≥ 64, as p/2^s < ½
	switch {
	case s <= 0:
		q = p << -s
	case s < 64:
		q = p >> s
		rem, half := p&(1<<s-1), uint64(1)<<(s-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	b = strconv.AppendUint(b, q/10000, 10)
	frac := q % 10000
	return append(b, '.', byte('0'+frac/1000), byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
}
