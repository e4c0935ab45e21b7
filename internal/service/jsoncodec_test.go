package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"atm/internal/core"
)

// referenceDecode is the pre-fast-path submit decoder: json.Unmarshal
// into submitRequest, then resolve task by task.
func referenceDecode(s *Server, body []byte) ([]Task, error) {
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &BadTaskError{msg: "malformed JSON body: " + err.Error()}
	}
	return s.resolveAll(req.Tasks, "")
}

// checkDecode runs body through the fast decoder and the reference.
// When the fast path accepts the body, both must fail with the same
// error or yield identical tasks with bit-equal inputs. It reports
// whether the fast path took the body.
func checkDecode(t *testing.T, s *Server, body []byte) bool {
	t.Helper()
	specs, ok := s.decodeSubmitJSON(body)
	if !ok {
		return false
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("fast path accepted %q; json.Unmarshal rejects it: %v", body, err)
	}
	got, gerr := s.resolveAll(specs, "")
	want, werr := referenceDecode(s, body)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("body %q: fast error %v, reference error %v", body, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d tasks, reference %d", body, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Tenant != w.Tenant || len(g.Input) != len(w.Input) || (g.Input == nil) != (w.Input == nil) {
			t.Fatalf("body %q: task %d = %+v, reference %+v", body, i, g, w)
		}
		for j := range w.Input {
			if math.Float64bits(g.Input[j]) != math.Float64bits(w.Input[j]) {
				t.Fatalf("body %q: task %d input[%d] = %v (%#x), reference %v (%#x)",
					body, i, j, g.Input[j], math.Float64bits(g.Input[j]), w.Input[j], math.Float64bits(w.Input[j]))
			}
		}
	}
	return true
}

func newCodecServer(t testing.TB) *Server {
	e := New(Config{Workers: 1})
	t.Cleanup(func() { _ = e.Close() })
	return NewServer(e)
}

// benchShapedBody renders a request as json.Marshal renders one task
// object at a time, the way perfbench and atmload build their bodies.
func benchShapedBody(t testing.TB, kinds []string, key uint64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"tasks":[`)
	for i, name := range kinds {
		k, ok := KindByName(name)
		if !ok {
			t.Fatalf("unknown kind %q", name)
		}
		frag, err := json.Marshal(taskSpec{Kind: name, Input: Input(k, key+uint64(i), 3)})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(frag)
	}
	b.WriteString("]}")
	return b.Bytes()
}

// fastBodies must take the fast path: the documented examples and the
// bodies real clients send.
func fastBodies(t testing.TB) []string {
	lu := Input(mustKind(t, "lu"), 5, 2)
	luJSON, _ := json.Marshal(lu)
	return []string{
		string(benchShapedBody(t, []string{"blackscholes", "kmeans", "stencil", "swaptions"}, 1)),
		string(benchShapedBody(t, []string{"lu"}, 9)),
		`{"tasks":[{"kind":"lu","key":7,"seed":2}]}`,
		`{"tasks":[{"kind":"lu","key":5,"seed":2},{"kind":"lu","key":6,"seed":2}]}`,
		`{"tasks":[{"kind":"stencil","key":1}]}`,
		`{"tasks":[{"kind":"lu","input":` + string(luJSON) + `}]}`,
		"{ \"tasks\" :\n[ {\t\"seed\" : 0 , \"key\":18446744073709551615,\"tenant\":\"acme\",\"kind\":\"lu\" }\r\n] }\n",
		`{"tasks":[{"kind":"lu","tenant":"","input":[1,2,3]}]}`,         // wrong arity: resolve passes, Do rejects
		`{"tasks":[{"kind":"nope","input":[1]}]}`,                       // unknown kind with input
		`{"tasks":[{"kind":"nope","key":1}]}`,                           // unknown kind via key: resolve's 400
		`{"tasks":[{"kind":"lu"}]}`,                                     // neither input nor key
		`{"tasks":[{"input":[-0,0,-0.0,1e-400,1e308,-1.5E+3,0.1e-2]}]}`, // no kind
		`{"tasks":[{"kind":"swaptions","input":[0.30000000000000004,123456789012345678901234567890,4.9e-324,2.2250738585072014e-308,9007199254740993,1e22,1e23,1e-22,1e-23]}]}`,
	}
}

// slowBodies must go to the reference decoder (and so keep its exact
// acceptance and messages).
var slowBodies = []string{
	``,
	`not json at all`,
	`null`,
	`{}`,
	`{"tasks":null}`,
	`{"tasks":[]}`,
	`{"tasks":[null]}`,
	`{"tasks":[{}]}`,
	`{"tasks":[{"kind":null,"input":[1]}]}`,
	`{"tasks":[{"kind":"lu","input":null}]}`,
	`{"tasks":[{"kind":"lu","input":[]}]}`,
	`{"tasks":[{"kind":"lu","key":null}]}`,
	`{"tasks":[{"kind":"lu\n","key":1}]}`,
	`{"tasks":[{"kind":"lü","key":1}]}`,
	`{"tasks":[{"Kind":"lu","key":1}]}`,
	`{"TASKS":[{"kind":"lu","key":1}]}`,
	`{"tasks":[{"kind":"lu","KEY":1}]}`,
	`{"tasks":[{"kind":"lu","ſeed":1,"key":1}]}`,
	`{"tasks":[{"kind":"lu","key":1,"extra":true}]}`,
	`{"tasks":[{"kind":"lu","key":1}],"more":1}`,
	`{"tasks":[{"kind":"lu","key":1}],"tasks":[{"kind":"lu","key":2}]}`,
	`{"tasks":[{"kind":"lu","kind":"stencil","key":1}]}`,
	`{"tasks":[{"kind":"lu","key":1,"key":2}]}`,
	`{"tasks":[{"kind":"lu","input":[1],"input":[2]}]}`,
	`{"tasks":[{"kind":"lu","key":-1}]}`,
	`{"tasks":[{"kind":"lu","key":1.0}]}`,
	`{"tasks":[{"kind":"lu","key":1e2}]}`,
	`{"tasks":[{"kind":"lu","key":01}]}`,
	`{"tasks":[{"kind":"lu","key":18446744073709551616}]}`,
	`{"tasks":[{"kind":"lu","key":"1"}]}`,
	`{"tasks":[{"kind":"lu","seed":-0,"key":1}]}`,
	`{"tasks":[{"kind":"lu","input":[01]}]}`,
	`{"tasks":[{"kind":"lu","input":[1.]}]}`,
	`{"tasks":[{"kind":"lu","input":[.5]}]}`,
	`{"tasks":[{"kind":"lu","input":[+1]}]}`,
	`{"tasks":[{"kind":"lu","input":[-]}]}`,
	`{"tasks":[{"kind":"lu","input":[1e]}]}`,
	`{"tasks":[{"kind":"lu","input":[1e+]}]}`,
	`{"tasks":[{"kind":"lu","input":[NaN]}]}`,
	`{"tasks":[{"kind":"lu","input":[Infinity]}]}`,
	`{"tasks":[{"kind":"lu","input":[1e400]}]}`,
	`{"tasks":[{"kind":"lu","input":[-1e99999999999999999999]}]}`,
	`{"tasks":[{"kind":"lu","input":[0x10]}]}`,
	`{"tasks":[{"kind":"lu","input":[1,]}]}`,
	`{"tasks":[{"kind":"lu","input":["1"]}]}`,
	`{"tasks":[{"kind":"lu","input":[[1]]}]}`,
	`{"tasks":[{"kind":"lu","key":1},]}`,
	`{"tasks":[{"kind":"lu","key":1}]}x`,
	`{"tasks":[{"kind":"lu","key":1}]`,
	`{"tasks":[{"kind":"lu","key":1}]}{}`,
	"\ufeff{\"tasks\":[{\"kind\":\"lu\",\"key\":1}]}",
}

// TestSubmitDecodeFastPath pins which bodies the fast path takes and
// checks each against the reference decoder.
func TestSubmitDecodeFastPath(t *testing.T) {
	s := newCodecServer(t)
	for _, body := range fastBodies(t) {
		if !checkDecode(t, s, []byte(body)) {
			t.Errorf("fast path refused %q", body)
		}
	}
	for _, body := range slowBodies {
		if checkDecode(t, s, []byte(body)) {
			t.Errorf("fast path took %q; want the reference decoder", body)
		}
	}
}

// FuzzSubmitDecode: on every body the fast path accepts, it and
// json.Unmarshal + resolve must agree exactly (see checkDecode).
func FuzzSubmitDecode(f *testing.F) {
	for _, body := range fastBodies(f) {
		f.Add([]byte(body))
	}
	for _, body := range slowBodies {
		f.Add([]byte(body))
	}
	s := newCodecServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, s, body)
	})
}

// TestParseNumberBitExact checks the scanner's number tokens against
// strconv.ParseFloat bit for bit, and that tokens ParseFloat rejects
// are rejected.
func TestParseNumberBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(tok string) {
		want, werr := strconv.ParseFloat(tok, 64)
		sc := jsonScanner{b: []byte(tok)}
		got, ok := sc.number()
		if werr != nil {
			if ok {
				t.Fatalf("%q: accepted as %v; ParseFloat: %v", tok, got, werr)
			}
			return
		}
		if !ok || sc.i != len(tok) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: got %v (%#x, ok=%v, consumed %d), want %v (%#x)",
				tok, got, math.Float64bits(got), ok, sc.i, want, math.Float64bits(want))
		}
	}
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.0", "1", "-1", "9007199254740992", "9007199254740993",
		"9007199254740991e22", "9007199254740992e-22", "1e22", "1e23", "1e-22", "1e-23",
		"0.1", "0.2", "0.30000000000000004", "123456789.123456789", "1.7976931348623157e308",
		"4.9e-324", "5e-324", "2e-324", "1e-400", "1e400", "2.2250738585072014e-308",
		"0.000001", "1e-7", "1E+21", "100000000000000000000000", "0.00000000000000000000000000001",
	} {
		check(tok)
	}
	var b []byte
	for n := 0; n < 300000; n++ {
		b = b[:0]
		if rng.Intn(2) == 0 {
			b = append(b, '-')
		}
		// Mantissas of every length, with the decimal point anywhere
		// and exponents of either sign.
		m := rng.Uint64() >> uint(rng.Intn(64))
		digits := strconv.AppendUint(nil, m, 10)
		if p := rng.Intn(len(digits) + 1); p < len(digits) && rng.Intn(2) == 0 {
			if p == 0 {
				b = append(b, '0')
			} else {
				b = append(b, digits[:p]...)
			}
			b = append(b, '.')
			b = append(b, digits[p:]...)
		} else {
			b = append(b, digits...)
		}
		if rng.Intn(3) > 0 {
			b = append(b, "eE"[rng.Intn(2)])
			b = strconv.AppendInt(b, int64(rng.Intn(61)-30), 10)
		}
		check(string(b))
	}
	// Every finite float64 pattern as encoding/json prints it.
	for n := 0; n < 300000; n++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(string(appendFloat(nil, f)))
	}
}

// TestAppendSubmitResponseMatchesEncoder: the append encoder's bytes
// equal json.Encoder's for edge floats and random bit patterns.
func TestAppendSubmitResponseMatchesEncoder(t *testing.T) {
	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		-1e-6, 1e-7, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64, 1e-300, 1e300, 123456789, 1.5e-9,
	}
	rng := rand.New(rand.NewSource(5))
	random := make([]float64, 0, 200000)
	for len(random) < cap(random) {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			random = append(random, f)
		}
	}
	g := GroupStats{Tasks: 4, Executed: 1, MemoTHT: 2, MemoIKT: 1}
	for _, outs := range [][][]float64{
		{edge},
		{edge[:1], nil, {}, edge[3:9]},
		{random[:100000], random[100000:]},
	} {
		resp := submitResponse{Results: make([]taskResult, len(outs)), Batch: batchBreakdown{Tasks: 4, Executed: 1, MemoTHT: 2, MemoIKT: 1}}
		for i, o := range outs {
			resp.Results[i] = taskResult{Output: o}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, err := appendSubmitResponse(nil, outs, g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			i := 0
			for i < len(got) && i < want.Len() && got[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("encoding differs at byte %d: got ...%q, want ...%q", i,
				got[max(0, i-40):min(len(got), i+40)], want.Bytes()[max(0, i-40):min(want.Len(), i+40)])
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := appendSubmitResponse(nil, [][]float64{{1, bad}}, g)
		werr := json.NewEncoder(&bytes.Buffer{}).Encode([]float64{bad})
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Errorf("%v: error %v, encoding/json says %v", bad, err, werr)
		}
	}
}

// TestSubmitDecodeFloodAllocations: a malformed body made mostly of
// one structural byte must not make the submit decoders allocate far
// more than the body itself, as presizing from unvalidated counts
// would: a task per '{' is ~72x the body, a float per ',' 8x, and a
// binary header's task count up to 2^20 tasks 56 MiB. The bound leaves
// room for a float arena of half the body's length in float64s (4x),
// which a valid body of one-digit inputs needs, plus one body's worth
// for the rest.
func TestSubmitDecodeFloodAllocations(t *testing.T) {
	s := newCodecServer(t)
	const n = 1 << 20
	for _, tc := range []struct {
		name, prefix, flood string
		binary              bool
	}{
		{"brace", `{"tasks":[`, "{", false},
		{"comma", `{"tasks":[`, ",", false},
		{"comma-after-input", `{"tasks":[{"kind":"kmeans","input":[1`, ",", false},
		{"bracket", `{"tasks":[{"kind":"kmeans","input":`, "[", false},
		{"binary-count", "\x00\x00\x10\x00", "\xff", true},
	} {
		body := []byte(tc.prefix + strings.Repeat(tc.flood, n))
		// The handler's decode step: the fast path, then the reference
		// decoder for what it hands off; or the binary decoder.
		var err error
		decode := func() {
			if tc.binary {
				_, err = decodeBinaryTasks(body)
			} else if _, ok := s.decodeSubmitJSON(body); ok {
				err = nil
			} else {
				var req submitRequest
				err = json.Unmarshal(body, &req)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s flood: decoded without error", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 5*uint64(len(body)) {
			t.Errorf("%s flood: %d-byte body allocated %d bytes (%.1fx)",
				tc.name, len(body), got, float64(got)/float64(len(body)))
		}
	}
}

// TestHTTPNonFiniteOutput500: a kind whose output is NaN cannot be
// carried by JSON; the reply must be a 500 with an error body, never a
// 200 with an empty one.
func TestHTTPNonFiniteOutput500(t *testing.T) {
	nan := Kind{Name: "nan", In: 1, Out: 2, Fn: func(in, out []float64) {
		out[0] = in[0]
		out[1] = math.NaN()
	}}
	_, ts := newTestServer(t, Config{Workers: 1, KindList: []Kind{nan}})
	resp, body := postJSON(t, ts.URL+"/v1/submit", `{"tasks":[{"kind":"nan","input":[1]}]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("NaN output: HTTP %d (%q), want 500", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "NaN") {
		t.Fatalf("NaN output: body %q is not an error naming NaN (%v)", body, err)
	}
}

// TestHTTPConcurrentSubmitsPooledBuffers sends distinct bodies from
// many goroutines at once: a body or reply buffer recycled while still
// referenced would show up as a wrong output (and under -race as a
// data race).
func TestHTTPConcurrentSubmitsPooledBuffers(t *testing.T) {
	atm := core.New(core.Config{Mode: core.ModeStatic})
	_, ts := newTestServer(t, Config{Workers: 2, Memo: atm})
	kinds := []string{"blackscholes", "kmeans", "stencil", "swaptions", "lu"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := uint64(g*100 + i%7)
				name := kinds[(g+i)%len(kinds)]
				k, _ := KindByName(name)
				in := Input(k, key, 3) // the seed benchShapedBody uses
				want := make([]float64, k.Out)
				k.Fn(in, want)
				var body []byte
				ct := "application/json"
				if i%2 == 0 {
					body = benchShapedBody(t, []string{name}, key)
				} else {
					body, _ = EncodeBinaryTasks([]Task{{Kind: name, Input: in}})
					ct = binaryContentType
				}
				resp, err := http.Post(ts.URL+"/v1/submit", ct, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var sub submitResponse
				err = json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(sub.Results) != 1 {
					t.Errorf("%s key %d: HTTP %d, %v", name, key, resp.StatusCode, err)
					return
				}
				// Static ATM serves exact hits: outputs equal the kernel's.
				if fmt.Sprint(sub.Results[0].Output) != fmt.Sprint(want) {
					t.Errorf("%s key %d: output differs from the kernel", name, key)
					return
				}
			}
		}()
	}
	wg.Wait()
}
