package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"atm/internal/metrics"
)

// The wire API (documented in docs/service.md):
//
//	POST /v1/submit    JSON {"tasks":[{"kind":"...","input":[...]}]} or
//	                   binary application/x-atm-tasks; batched bodies
//	                   coalesce into one SubmitBatch on the engine loop.
//	                   A per-task "tenant" field (or the X-ATM-Tenant
//	                   header for the whole request) selects the
//	                   memoization namespace.
//	GET  /v1/lookup    ?kind=...&input=1,2,... (or &key=N&seed=S):
//	                   memoization probe, never executes; &tenant= (or
//	                   X-ATM-Tenant) scopes the probe.
//	POST /v1/snapshot  optional JSON {"path":"..."}: persist the table.
//	GET  /v1/stats     JSON operational counters + ATM statistics.
//	GET  /metrics      Prometheus text format.
//	GET  /healthz      liveness.
//
// Overload is shed with 429 + Retry-After; malformed bodies get 400.

// maxBodyBytes bounds a submit body (64 tasks of the largest kind fit
// in well under 1 MiB of JSON; 8 MiB leaves generous headroom).
const maxBodyBytes = 8 << 20

// submitRequest is the JSON submit body.
type submitRequest struct {
	Tasks []taskSpec `json:"tasks"`
}

// taskSpec is one task: a kind plus either an explicit input vector or
// a (key, seed) pair the server expands through the deterministic
// workload generator (the form atmload's smoke mode and quick curl
// tests use). Tenant selects the memoization namespace; a request-wide
// default comes from the X-ATM-Tenant header.
type taskSpec struct {
	Kind   string    `json:"kind"`
	Tenant string    `json:"tenant,omitempty"`
	Input  []float64 `json:"input,omitempty"`
	Key    *uint64   `json:"key,omitempty"`
	Seed   uint64    `json:"seed,omitempty"`
}

// submitResponse is the JSON submit reply. appendSubmitResponse writes
// it without reflection; its encoding/json form is the reference the
// tests hold that writer to.
type submitResponse struct {
	Results []taskResult   `json:"results"`
	Batch   batchBreakdown `json:"batch"`
}

type taskResult struct {
	Output []float64 `json:"output"`
}

// batchBreakdown reports the coalesced engine batch's ATM activity
// (per-batch granularity: requests coalesced together see the same
// numbers).
type batchBreakdown struct {
	Tasks    int64 `json:"tasks"`
	Executed int64 `json:"executed"`
	MemoTHT  int64 `json:"memo_tht"`
	MemoIKT  int64 `json:"memo_ikt"`
}

type lookupResponse struct {
	Hit    bool      `json:"hit"`
	Output []float64 `json:"output,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is the GET /v1/stats JSON shape: the engine's
// operational counters plus the ATM totals a load generator diffs to
// compute warm-hit ratios.
type StatsResponse struct {
	Requests     int64 `json:"requests"`
	Tasks        int64 `json:"tasks"`
	ShedRequests int64 `json:"shed_requests"`
	ShedTasks    int64 `json:"shed_tasks"`
	Batches      int64 `json:"batches"`
	Lookups      int64 `json:"lookups"`
	LookupHits   int64 `json:"lookup_hits"`
	Saves        int64 `json:"saves"`
	Queued       int64 `json:"queued"`
	BacklogLimit int64 `json:"backlog_limit"`

	Memoizing   bool   `json:"memoizing"`
	ATMTasks    int64  `json:"atm_tasks"`
	ATMExecuted int64  `json:"atm_executed"`
	MemoTHT     int64  `json:"memo_tht"`
	MemoIKT     int64  `json:"memo_ikt"`
	THTEntries  int64  `json:"tht_entries"`
	THTBytes    int64  `json:"tht_bytes"`
	THTLookups  int64  `json:"tht_lookups"`
	THTHits     int64  `json:"tht_hits"`
	IKTDefers   int64  `json:"ikt_defers"`
	SaveError   string `json:"save_error,omitempty"`

	// Budget / eviction state (zero when the THT is unbounded):
	// THTEvictions counts every displaced entry, THTBudgetEvictions
	// the subset forced by the byte budget, THTAdmissionRejects inserts
	// refused at admission.
	THTBudgetBytes      int64  `json:"tht_budget_bytes,omitempty"`
	THTEvictionPolicy   string `json:"tht_eviction_policy,omitempty"`
	THTEvictions        int64  `json:"tht_evictions"`
	THTBudgetEvictions  int64  `json:"tht_budget_evictions"`
	THTAdmissionRejects int64  `json:"tht_admission_rejects"`
	// Tenants is the per-tenant THT accounting (present once a
	// non-default tenant registered or a budget is set).
	Tenants []TenantStatsJSON `json:"tenants,omitempty"`
}

// TenantStatsJSON is one tenant's row in GET /v1/stats.
type TenantStatsJSON struct {
	Name        string `json:"name"`
	BudgetBytes int64  `json:"budget_bytes,omitempty"`
	Bytes       int64  `json:"bytes"`
	Entries     int64  `json:"entries"`
	Evictions   int64  `json:"evictions"`
}

// WarmHitRatio is the fraction of ATM-visible tasks served without
// execution — the service's headline cache effectiveness number.
func (s StatsResponse) WarmHitRatio() float64 {
	if s.ATMTasks == 0 {
		return 0
	}
	return float64(s.MemoTHT+s.MemoIKT) / float64(s.ATMTasks)
}

// Sub returns s - prev counter-wise: the per-run diff a load generator
// reports.
func (s StatsResponse) Sub(prev StatsResponse) StatsResponse {
	d := s
	d.Requests -= prev.Requests
	d.Tasks -= prev.Tasks
	d.ShedRequests -= prev.ShedRequests
	d.ShedTasks -= prev.ShedTasks
	d.Batches -= prev.Batches
	d.Lookups -= prev.Lookups
	d.LookupHits -= prev.LookupHits
	d.Saves -= prev.Saves
	d.ATMTasks -= prev.ATMTasks
	d.ATMExecuted -= prev.ATMExecuted
	d.MemoTHT -= prev.MemoTHT
	d.MemoIKT -= prev.MemoIKT
	d.THTLookups -= prev.THTLookups
	d.THTHits -= prev.THTHits
	d.IKTDefers -= prev.IKTDefers
	d.THTEvictions -= prev.THTEvictions
	d.THTBudgetEvictions -= prev.THTBudgetEvictions
	d.THTAdmissionRejects -= prev.THTAdmissionRejects
	return d
}

// Server is the HTTP front-end over an Engine.
type Server struct {
	e     *Engine
	mux   *http.ServeMux
	start time.Time

	submitLat *metrics.Histogram
	lookupLat *metrics.Histogram

	codeMu sync.Mutex
	codes  map[codeKey]int64
}

type codeKey struct {
	route string
	code  int
}

// NewServer wires the routes for an engine. The returned Server is an
// http.Handler.
func NewServer(e *Engine) *Server {
	s := &Server{
		e:         e,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		submitLat: &metrics.Histogram{},
		lookupLat: &metrics.Histogram{},
		codes:     make(map[codeKey]int64),
	}
	s.mux.HandleFunc("POST /v1/submit", s.instrument("submit", s.submitLat, s.handleSubmit))
	s.mux.HandleFunc("GET /v1/lookup", s.instrument("lookup", s.lookupLat, s.handleLookup))
	s.mux.HandleFunc("POST /v1/snapshot", s.instrument("snapshot", nil, s.handleSnapshot))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", nil, s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", nil, s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter captures the response code for the per-route counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route code counter and an
// optional latency histogram.
func (s *Server) instrument(route string, lat *metrics.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		if lat != nil {
			lat.Observe(time.Since(t0))
		}
		s.codeMu.Lock()
		s.codes[codeKey{route: route, code: sw.code}]++
		s.codeMu.Unlock()
	}
}

// writeJSON encodes v before anything is written, so a value JSON
// cannot carry (a NaN or ±Inf output) answers 500 with an error body
// instead of a 200 with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, code, buf.Bytes())
}

// writeEncodeError is the reply to a failed response encoding.
func writeEncodeError(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "service: encode reply: " + err.Error()})
}

func writeBody(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client is gone; there is no one left to
	// tell.
	_, _ = w.Write(b)
}

// writeError maps engine errors onto the HTTP status contract:
// validation failures 400, overload 429 + Retry-After, shutdown 503,
// anything else 500.
func writeError(w http.ResponseWriter, err error) {
	var bad *BadTaskError
	var over *OverloadError
	switch {
	case errors.As(err, &bad):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case errors.As(err, &over):
		// Shed, don't queue: the client owns the retry. One second is
		// long enough for the engine to drain a full watermark of the
		// cheap kinds many times over.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// resolve expands a taskSpec into a concrete Task. defTenant is the
// request-wide tenant (the X-ATM-Tenant header); a per-task tenant
// overrides it.
func (s *Server) resolve(i int, spec taskSpec, defTenant string) (Task, error) {
	tenant := spec.Tenant
	if tenant == "" {
		tenant = defTenant
	}
	if spec.Input != nil {
		return Task{Kind: spec.Kind, Tenant: tenant, Input: spec.Input}, nil
	}
	if spec.Key == nil {
		return Task{}, &BadTaskError{msg: fmt.Sprintf("task %d: needs either input or key", i)}
	}
	k, ok := s.e.Kind(spec.Kind)
	if !ok {
		return Task{}, &BadTaskError{msg: fmt.Sprintf("task %d: unknown kind %q", i, spec.Kind)}
	}
	return Task{Kind: spec.Kind, Tenant: tenant, Input: Input(k, *spec.Key, spec.Seed)}, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	buf, err := readBody(w, r)
	if err != nil {
		writeError(w, &BadTaskError{msg: "body: " + err.Error()})
		return
	}
	body := buf.Bytes()
	var tasks []Task
	ct := r.Header.Get("Content-Type")
	defTenant := r.Header.Get("X-ATM-Tenant")
	if strings.HasPrefix(ct, binaryContentType) {
		tasks, err = decodeBinaryTasks(body)
		for i := range tasks {
			// The binary encoding carries no per-task tenant; the header
			// scopes the whole request.
			tasks[i].Tenant = defTenant
		}
	} else {
		specs, ok := s.decodeSubmitJSON(body)
		if !ok {
			// Outside the fast path's shape: the reference decoder
			// decides, with encoding/json's own error text.
			var req submitRequest
			if jerr := json.Unmarshal(body, &req); jerr != nil {
				err = &BadTaskError{msg: "malformed JSON body: " + jerr.Error()}
			}
			specs = req.Tasks
		}
		if err == nil {
			tasks, err = s.resolveAll(specs, defTenant)
		}
	}
	putBuffer(buf)
	if err != nil {
		writeError(w, err)
		return
	}
	outs, g, err := s.e.Do(tasks)
	if err != nil {
		writeError(w, err)
		return
	}
	reply := replyPool.Get().(*[]byte)
	defer putReply(reply)
	b, err := appendSubmitResponse((*reply)[:0], outs, g)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	*reply = b
	writeBody(w, http.StatusOK, b)
}

// resolveAll resolves decoded task specs in order, stopping at the
// first error.
func (s *Server) resolveAll(specs []taskSpec, defTenant string) ([]Task, error) {
	tasks := make([]Task, 0, len(specs))
	for i, spec := range specs {
		t, err := s.resolve(i, spec, defTenant)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	kind := q.Get("kind")
	var input []float64
	switch {
	case q.Get("input") != "":
		for _, f := range strings.Split(q.Get("input"), ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				writeError(w, &BadTaskError{msg: "bad input value: " + err.Error()})
				return
			}
			input = append(input, v)
		}
	case q.Get("key") != "":
		key, err := strconv.ParseUint(q.Get("key"), 10, 64)
		if err != nil {
			writeError(w, &BadTaskError{msg: "bad key: " + err.Error()})
			return
		}
		var seed uint64
		if sstr := q.Get("seed"); sstr != "" {
			if seed, err = strconv.ParseUint(sstr, 10, 64); err != nil {
				writeError(w, &BadTaskError{msg: "bad seed: " + err.Error()})
				return
			}
		}
		k, ok := s.e.Kind(kind)
		if !ok {
			writeError(w, &BadTaskError{msg: fmt.Sprintf("unknown kind %q", kind)})
			return
		}
		input = Input(k, key, seed)
	default:
		writeError(w, &BadTaskError{msg: "lookup needs ?input=... or ?key=..."})
		return
	}
	tenant := q.Get("tenant")
	if tenant == "" {
		tenant = r.Header.Get("X-ATM-Tenant")
	}
	out, hit, err := s.e.LookupTenant(tenant, kind, input)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, lookupResponse{Hit: hit, Output: out})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path string `json:"path"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err == nil && len(body) > 0 {
		if jerr := json.Unmarshal(body, &req); jerr != nil {
			writeError(w, &BadTaskError{msg: "malformed JSON body: " + jerr.Error()})
			return
		}
	}
	if err := s.e.Snapshot(req.Path); err != nil {
		if errors.Is(err, ErrNoPersistence) {
			writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"saved": true})
}

// BuildStats assembles the stats JSON (also used by the loadgen's
// before/after diff).
func (s *Server) BuildStats() StatsResponse {
	c := s.e.Counters()
	resp := StatsResponse{
		Requests: c.Requests, Tasks: c.Tasks,
		ShedRequests: c.ShedRequests, ShedTasks: c.ShedTasks,
		Batches: c.Batches, Lookups: c.Lookups, LookupHits: c.LookupHits,
		Saves: c.Saves, Queued: c.Queued, BacklogLimit: c.BacklogLimit,
		Memoizing: s.e.Memoizing(),
	}
	if err := s.e.SaveErr(); err != nil {
		resp.SaveError = err.Error()
	}
	st := s.e.Stats()
	for _, ts := range st.Types {
		resp.ATMTasks += ts.Tasks
		resp.ATMExecuted += ts.Executed
		resp.MemoTHT += ts.MemoizedTHT
		resp.MemoIKT += ts.MemoizedIKT
	}
	resp.THTEntries = st.THTEntries
	resp.THTBytes = st.THTBytes
	resp.THTLookups = st.THTLookups
	resp.THTHits = st.THTHits
	resp.IKTDefers = st.IKTDefers
	resp.THTBudgetBytes = st.THTBudgetBytes
	if st.THTBudgetBytes > 0 {
		resp.THTEvictionPolicy = st.THTEvictionPolicy
	}
	resp.THTEvictions = st.THTEvictions
	resp.THTBudgetEvictions = st.THTBudgetEvictions
	resp.THTAdmissionRejects = st.THTAdmissionRejects
	for _, ts := range st.Tenants {
		resp.Tenants = append(resp.Tenants, TenantStatsJSON{
			Name: ts.Name, BudgetBytes: ts.BudgetBytes,
			Bytes: ts.Bytes, Entries: ts.Entries, Evictions: ts.Evictions,
		})
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.BuildStats())
}

// handleMetrics renders the Prometheus exposition: the engine and HTTP
// counters plus the ATM per-type and table statistics (the metrics
// catalog of docs/service.md).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := metrics.NewProm(w)
	c := s.e.Counters()

	p.Family("atmd_requests_total", "counter", "HTTP requests by route and status code.")
	s.codeMu.Lock()
	keys := make([]codeKey, 0, len(s.codes))
	for k := range s.codes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		p.Sample("atmd_requests_total",
			[]metrics.Label{{Name: "route", Value: k.route}, {Name: "code", Value: strconv.Itoa(k.code)}},
			float64(s.codes[k]))
	}
	s.codeMu.Unlock()

	p.Family("atmd_tasks_total", "counter", "Tasks admitted through /v1/submit.")
	p.Sample("atmd_tasks_total", nil, float64(c.Tasks))
	p.Family("atmd_shed_tasks_total", "counter", "Tasks shed at the admission watermark (429).")
	p.Sample("atmd_shed_tasks_total", nil, float64(c.ShedTasks))
	p.Family("atmd_batches_total", "counter", "Coalesced SubmitBatch fences run by the engine loop.")
	p.Sample("atmd_batches_total", nil, float64(c.Batches))
	p.Family("atmd_snapshot_saves_total", "counter", "Completed snapshot saves.")
	p.Sample("atmd_snapshot_saves_total", nil, float64(c.Saves))
	p.Family("atmd_queue_tasks", "gauge", "Tasks admitted but not yet completed.")
	p.Sample("atmd_queue_tasks", nil, float64(c.Queued))
	p.Family("atmd_backlog_limit_tasks", "gauge", "Current admission watermark (adaptive unless -backlog fixed it).")
	p.Sample("atmd_backlog_limit_tasks", nil, float64(c.BacklogLimit))
	p.Family("atmd_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Sample("atmd_uptime_seconds", nil, time.Since(s.start).Seconds())

	p.Family("atmd_submit_seconds", "histogram", "Server-side /v1/submit latency.")
	p.LatencyHistogram("atmd_submit_seconds", nil, s.submitLat)
	p.Family("atmd_lookup_seconds", "histogram", "Server-side /v1/lookup latency.")
	p.LatencyHistogram("atmd_lookup_seconds", nil, s.lookupLat)

	st := s.e.Stats()
	p.Family("atm_type_tasks_total", "counter", "ATM-visible tasks by type.")
	p.Family("atm_type_executed_total", "counter", "Tasks whose body ran, by type.")
	p.Family("atm_type_memo_tht_total", "counter", "Tasks served from the THT, by type.")
	p.Family("atm_type_memo_ikt_total", "counter", "Tasks deduplicated in flight, by type.")
	p.Family("atm_type_level", "gauge", "Current p level by type (p = 2^(level-15)).")
	for _, ts := range st.Types {
		l := []metrics.Label{{Name: "type", Value: ts.Name}}
		p.Sample("atm_type_tasks_total", l, float64(ts.Tasks))
		p.Sample("atm_type_executed_total", l, float64(ts.Executed))
		p.Sample("atm_type_memo_tht_total", l, float64(ts.MemoizedTHT))
		p.Sample("atm_type_memo_ikt_total", l, float64(ts.MemoizedIKT))
		p.Sample("atm_type_level", l, float64(ts.Level))
	}
	p.Family("atm_tht_entries", "gauge", "Task History Table entries.")
	p.Sample("atm_tht_entries", nil, float64(st.THTEntries))
	p.Family("atm_tht_bytes", "gauge", "Task History Table payload bytes.")
	p.Sample("atm_tht_bytes", nil, float64(st.THTBytes))
	p.Family("atm_tht_lookups_total", "counter", "THT lookups.")
	p.Sample("atm_tht_lookups_total", nil, float64(st.THTLookups))
	p.Family("atm_tht_hits_total", "counter", "THT hits.")
	p.Sample("atm_tht_hits_total", nil, float64(st.THTHits))
	p.Family("atm_tht_evictions_total", "counter", "THT evictions (ring replacements and budget evictions).")
	p.Sample("atm_tht_evictions_total", nil, float64(st.THTEvictions))
	p.Family("atm_tht_budget_bytes", "gauge", "Configured THT memory budget (0 = unbounded).")
	p.Sample("atm_tht_budget_bytes", nil, float64(st.THTBudgetBytes))
	p.Family("atm_tht_budget_evictions_total", "counter", "THT evictions forced by the memory budget.")
	p.Sample("atm_tht_budget_evictions_total", nil, float64(st.THTBudgetEvictions))
	p.Family("atm_tht_admission_rejects_total", "counter", "THT inserts rejected at admission (budget or TinyLFU duel).")
	p.Sample("atm_tht_admission_rejects_total", nil, float64(st.THTAdmissionRejects))
	if len(st.Tenants) > 0 {
		p.Family("atm_tenant_budget_bytes", "gauge", "Per-tenant THT budget share (0 = global budget only).")
		p.Family("atm_tenant_bytes", "gauge", "Per-tenant THT payload bytes.")
		p.Family("atm_tenant_entries", "gauge", "Per-tenant THT entries.")
		p.Family("atm_tenant_evictions_total", "counter", "Per-tenant THT evictions.")
		for _, ts := range st.Tenants {
			name := ts.Name
			if name == "" {
				name = "default"
			}
			l := []metrics.Label{{Name: "tenant", Value: name}}
			p.Sample("atm_tenant_budget_bytes", l, float64(ts.BudgetBytes))
			p.Sample("atm_tenant_bytes", l, float64(ts.Bytes))
			p.Sample("atm_tenant_entries", l, float64(ts.Entries))
			p.Sample("atm_tenant_evictions_total", l, float64(ts.Evictions))
		}
	}
	p.Family("atm_ikt_inserts_total", "counter", "In-flight Key Table inserts.")
	p.Sample("atm_ikt_inserts_total", nil, float64(st.IKTInserts))
	p.Family("atm_ikt_defers_total", "counter", "Tasks deferred to an in-flight provider.")
	p.Sample("atm_ikt_defers_total", nil, float64(st.IKTDefers))
	_ = p.Err()
}

// binaryContentType selects the compact submit encoding: little-endian
//
//	u32 ntasks, then per task: u8 kind-name length, kind name,
//	u32 nfloats, nfloats × f64.
const binaryContentType = "application/x-atm-tasks"

// decodeBinaryTasks parses the binary submit body.
func decodeBinaryTasks(body []byte) ([]Task, error) {
	bad := func(msg string) error { return &BadTaskError{msg: "binary body: " + msg} }
	if len(body) < 4 {
		return nil, bad("truncated count")
	}
	n := binary.LittleEndian.Uint32(body)
	if n == 0 || n > 1<<20 {
		return nil, bad(fmt.Sprintf("implausible task count %d", n))
	}
	off := 4
	// tasks grows by append: n is not validated until the tasks are
	// read, and presizing from it would let a few bytes claim a huge
	// allocation.
	var tasks []Task
	for i := uint32(0); i < n; i++ {
		if off >= len(body) {
			return nil, bad("truncated kind length")
		}
		kl := int(body[off])
		off++
		if off+kl > len(body) {
			return nil, bad("truncated kind name")
		}
		kind := string(body[off : off+kl])
		off += kl
		if off+4 > len(body) {
			return nil, bad("truncated float count")
		}
		nf := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if nf < 0 || off+8*nf > len(body) {
			return nil, bad("truncated input vector")
		}
		in := make([]float64, nf)
		for j := 0; j < nf; j++ {
			in[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8*j:]))
		}
		off += 8 * nf
		tasks = append(tasks, Task{Kind: kind, Input: in})
	}
	if off != len(body) {
		return nil, bad(fmt.Sprintf("%d trailing bytes", len(body)-off))
	}
	return tasks, nil
}

// EncodeBinaryTasks renders tasks in the binary submit encoding (the
// client half, used by atmload's -binary mode and tests).
func EncodeBinaryTasks(tasks []Task) ([]byte, error) {
	buf := make([]byte, 4, 4+len(tasks)*64)
	binary.LittleEndian.PutUint32(buf, uint32(len(tasks)))
	for _, t := range tasks {
		if len(t.Kind) > 255 {
			return nil, fmt.Errorf("kind name too long: %q", t.Kind)
		}
		buf = append(buf, byte(len(t.Kind)))
		buf = append(buf, t.Kind...)
		var nf [4]byte
		binary.LittleEndian.PutUint32(nf[:], uint32(len(t.Input)))
		buf = append(buf, nf[:]...)
		for _, v := range t.Input {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			buf = append(buf, b[:]...)
		}
	}
	return buf, nil
}
