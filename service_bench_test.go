package atm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"atm/internal/core"
	"atm/internal/service"
)

// benchResponse is a reusable http.ResponseWriter: the handler's own
// cost is what BenchmarkServiceSubmit measures, not a recorder's.
type benchResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *benchResponse) Header() http.Header         { return r.header }
func (r *benchResponse) WriteHeader(code int)        { r.code = code }
func (r *benchResponse) Write(b []byte) (int, error) { return r.body.Write(b) }

// benchBody is a request body that can be rewound without allocating.
type benchBody struct{ bytes.Reader }

func (benchBody) Close() error { return nil }

// BenchmarkServiceSubmit measures one warm POST /v1/submit through the
// HTTP handler, in-process with no network: body read, decode, engine
// round trip (coalescing loop, SubmitBatch, four THT hits, Wait) and
// reply encoding. The request holds one task of each of the four
// heaviest DefaultMix kinds (592 input floats), the shape of the
// end-to-end benchmark's svc-hot requests; json and binary differ only
// in the request encoding (the reply is JSON in both). BENCH_8.json
// gates ns/op and allocs/op.
func BenchmarkServiceSubmit(b *testing.B) {
	kinds := []string{"blackscholes", "kmeans", "stencil", "swaptions"}
	tasks := make([]service.Task, len(kinds))
	for i, name := range kinds {
		k, ok := service.KindByName(name)
		if !ok || service.DefaultMix()[name] == 0 {
			b.Fatalf("kind %q is not in the default mix", name)
		}
		tasks[i] = service.Task{Kind: name, Input: service.Input(k, uint64(i), 1)}
	}
	type jsonTask struct {
		Kind  string    `json:"kind"`
		Input []float64 `json:"input"`
	}
	jt := make([]jsonTask, len(tasks))
	for i, t := range tasks {
		jt[i] = jsonTask{t.Kind, t.Input}
	}
	jsonBody, err := json.Marshal(struct {
		Tasks []jsonTask `json:"tasks"`
	}{jt})
	if err != nil {
		b.Fatal(err)
	}
	binBody, err := service.EncodeBinaryTasks(tasks)
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", jsonBody},
		{"binary", "application/x-atm-tasks", binBody},
	} {
		b.Run(enc.name, func(b *testing.B) {
			eng := service.New(service.Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic})})
			defer eng.Close()
			srv := service.NewServer(eng)
			body := &benchBody{}
			req, err := http.NewRequest(http.MethodPost, "/v1/submit", body)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", enc.contentType)
			req.ContentLength = int64(len(enc.body))
			w := &benchResponse{header: http.Header{}}
			submit := func() {
				body.Reset(enc.body)
				w.body.Reset()
				w.code = http.StatusOK
				srv.ServeHTTP(w, req)
			}
			// Warm: the first submit executes and inserts; later ones hit.
			submit()
			submit()
			var reply struct {
				Batch struct {
					MemoTHT int `json:"memo_tht"`
				} `json:"batch"`
			}
			if err := json.Unmarshal(w.body.Bytes(), &reply); w.code != http.StatusOK || err != nil || reply.Batch.MemoTHT != len(tasks) {
				b.Fatalf("warm submit: HTTP %d, %v, %d THT hits of %d: %s", w.code, err, reply.Batch.MemoTHT, len(tasks), w.body.Bytes())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
			b.StopTimer()
			if w.code != http.StatusOK {
				b.Fatalf("HTTP %d: %s", w.code, w.body.Bytes())
			}
		})
	}
}
