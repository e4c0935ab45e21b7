package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The JSON codec of POST /v1/submit, without reflection.
//
// decodeSubmitJSON is a single-pass scanner for the documented body
// shape, {"tasks":[{...},...]} with each task object holding kind,
// tenant, input, key and seed in any order. A body outside that shape —
// string escapes, non-ASCII or control bytes in strings, unknown,
// duplicate or case-variant keys, null, an empty array, a number
// strconv rejects, any syntax error — is not decoded here: the caller
// hands it to json.Unmarshal, the reference decoder, so the accepted
// language and every 400 message stay exactly what encoding/json
// defines. On the bodies it does accept, the fast path yields the same
// taskSpecs json.Unmarshal would, with bit-identical floats.
//
// appendSubmitResponse writes the reply byte-identically to
// json.NewEncoder(w).Encode(submitResponse{...}).

// bodyPool recycles request-body buffers, and writeJSON's encoding
// buffers, across requests. Decoded tasks never alias a body buffer
// (floats are parsed into a fresh arena, strings are copied or
// interned), so a body goes back to the pool as soon as its tasks are
// decoded.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// replyPool recycles the byte slices submit replies are appended into.
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuffer keeps buffers of unusually large bodies and replies
// out of the pools, so one 8 MiB request does not pin 8 MiB per pooled
// buffer.
const maxPooledBuffer = 1 << 20

func getBuffer() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		bodyPool.Put(b)
	}
}

func putReply(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		replyPool.Put(b)
	}
}

// readBody reads a request body, bounded by maxBodyBytes, into a
// pooled buffer presized from Content-Length. The caller returns the
// buffer with putBuffer once nothing references its bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := getBuffer()
	if n := r.ContentLength; n > 0 {
		// MinRead of headroom: ReadFrom then reads an honest body and
		// its EOF without growing the buffer. The presize stops at
		// maxPooledBuffer, so a header claiming a huge body costs
		// nothing until the bytes actually arrive.
		buf.Grow(int(min(n, maxPooledBuffer)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		putBuffer(buf)
		return nil, err
	}
	return buf, nil
}

// jsonScanner walks a JSON body byte by byte.
type jsonScanner struct {
	b []byte
	i int
}

func (s *jsonScanner) skipWS() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (s *jsonScanner) consume(c byte) bool {
	s.skipWS()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string token and returns its contents. Only printable
// ASCII without escapes is accepted: anything else (escapes, control
// bytes, UTF-8 that json.Unmarshal might repair) is left to the
// reference decoder.
func (s *jsonScanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// number scans a number token under the strict JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and converts it with
// strconv.ParseFloat, as json.Unmarshal does. A token outside the
// grammar, or one ParseFloat rejects (out of range), reports false.
func (s *jsonScanner) number() (float64, bool) {
	s.skipWS()
	b, start := s.b, s.i
	i := s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		i = skipDigits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		d0 := i + 1
		if i = skipDigits(b, d0); i == d0 {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d0 := i
		if i = skipDigits(b, d0); i == d0 {
			return 0, false
		}
	}
	s.i = i
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil
}

// skipDigits returns the index past the decimal digits of b from i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// unsigned scans a number token json.Unmarshal stores into a uint64 field:
// plain decimal digits, no leading zero, no sign, fraction or exponent,
// within range. Anything else reports false.
func (s *jsonScanner) unsigned() (uint64, bool) {
	s.skipWS()
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	tok := s.b[start:s.i]
	if len(tok) == 0 || len(tok) > 1 && tok[0] == '0' {
		return 0, false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	return v, err == nil
}

// Task fields, as bits of a per-object seen mask (duplicates fall back).
const (
	fieldKind = 1 << iota
	fieldTenant
	fieldInput
	fieldKey
	fieldSeed
)

// decodeSubmitJSON parses body on the fast path. ok=false means the
// body is outside the fast path's shape and must go to json.Unmarshal;
// nothing about its validity is implied.
//
// Every task's input lands in one float64 arena allocated per request
// and sized from the body. It is deliberately not pooled: the runtime
// tracks regions by address until its next Reset, so a recycled arena
// could alias a stale dependence slot.
func (s *Server) decodeSubmitJSON(body []byte) (specs []taskSpec, ok bool) {
	sc := jsonScanner{b: body}
	if !sc.consume('{') {
		return nil, false
	}
	if key, ok := sc.str(); !ok || string(key) != "tasks" || !sc.consume(':') || !sc.consume('[') {
		return nil, false
	}
	// Every number of an input array is followed by ',' or ']' and every
	// array opens with '[', so these bound the floats the body holds. A
	// float and its separator take at least two bytes, which caps the
	// presize when a malformed body is mostly separators. specs grows by
	// append: a request carries a few tasks.
	floats := bytes.Count(body, []byte{','}) + bytes.Count(body, []byte{'['})
	arena := make([]float64, 0, min(floats, len(body)/2))
	for {
		spec, ok := s.decodeTask(&sc, &arena)
		if !ok {
			return nil, false
		}
		specs = append(specs, spec)
		if sc.consume(']') {
			break
		}
		if !sc.consume(',') {
			return nil, false
		}
	}
	if !sc.consume('}') {
		return nil, false
	}
	sc.skipWS()
	return specs, sc.i == len(body)
}

// decodeTask parses one task object.
func (s *Server) decodeTask(sc *jsonScanner, arena *[]float64) (spec taskSpec, ok bool) {
	if !sc.consume('{') {
		return spec, false
	}
	var seen int
	for {
		key, ok := sc.str()
		if !ok || !sc.consume(':') {
			return spec, false
		}
		var field int
		switch string(key) {
		case "kind":
			field = fieldKind
			v, ok := sc.str()
			if !ok {
				return spec, false
			}
			// Interning a served kind's name spares the allocation.
			if k, known := s.e.kinds[string(v)]; known {
				spec.Kind = k.Name
			} else {
				spec.Kind = string(v)
			}
		case "tenant":
			field = fieldTenant
			v, ok := sc.str()
			if !ok {
				return spec, false
			}
			spec.Tenant = string(v)
		case "input":
			field = fieldInput
			if !sc.consume('[') || sc.consume(']') {
				return spec, false
			}
			start := len(*arena)
			for {
				f, ok := sc.number()
				if !ok {
					return spec, false
				}
				*arena = append(*arena, f)
				if sc.consume(']') {
					break
				}
				if !sc.consume(',') {
					return spec, false
				}
			}
			end := len(*arena)
			spec.Input = (*arena)[start:end:end]
		case "key":
			field = fieldKey
			v, ok := sc.unsigned()
			if !ok {
				return spec, false
			}
			spec.Key = &v
		case "seed":
			field = fieldSeed
			if spec.Seed, ok = sc.unsigned(); !ok {
				return spec, false
			}
		default:
			return spec, false
		}
		if seen&field != 0 {
			return spec, false
		}
		seen |= field
		if sc.consume('}') {
			return spec, true
		}
		if !sc.consume(',') {
			return spec, false
		}
	}
}

// appendSubmitResponse appends the JSON submit reply for outs and g to
// b, byte-identical to json.NewEncoder(w).Encode of the equivalent
// submitResponse, trailing newline included. A NaN or ±Inf output
// returns the error encoding/json reports for it.
func appendSubmitResponse(b []byte, outs [][]float64, g GroupStats) ([]byte, error) {
	b = append(b, `{"results":[`...)
	for i, out := range outs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"output":`...)
		if out == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, f := range out {
				if j > 0 {
					b = append(b, ',')
				}
				if math.IsInf(f, 0) || math.IsNaN(f) {
					return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
				}
				b = appendFloat(b, f)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	b = append(b, `],"batch":{"tasks":`...)
	b = strconv.AppendInt(b, g.Tasks, 10)
	b = append(b, `,"executed":`...)
	b = strconv.AppendInt(b, g.Executed, 10)
	b = append(b, `,"memo_tht":`...)
	b = strconv.AppendInt(b, g.MemoTHT, 10)
	b = append(b, `,"memo_ikt":`...)
	b = strconv.AppendInt(b, g.MemoIKT, 10)
	return append(b, "}}\n"...), nil
}

// appendFloat formats a finite float64 as encoding/json does: the
// shortest 'f' representation, or 'e' below 1e-6 and from 1e21 up in
// magnitude, with a two-digit negative exponent shortened (e-07 →
// e-7).
func appendFloat(b []byte, f float64) []byte {
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
