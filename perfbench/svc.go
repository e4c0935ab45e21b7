package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"atm/internal/core"
	"atm/internal/harness"
	"atm/internal/persist"
	"atm/internal/service"
	"atm/internal/taskrt"
)

// svcSpec fixes what differs between the two service workloads.
type svcSpec struct {
	name string
	// binary selects application/x-atm-tasks request bodies (else JSON).
	binary bool
	// keys is the key space per kind; zipf the Zipf exponent over it
	// (0 = uniform keys).
	keys uint64
	zipf float64
	// budget is the THT budget in bytes, atmd's -tht-budget (0 = none).
	budget int64
}

// The load the service workloads share. Rates and limits are constants
// of the benchmark so that two commits are measured alike.
const (
	tasksPerReq = 4
	svcWorkers  = 2 // runtime workers, as atmd -workers 2
	conns       = 2 // client connections: the box has 2 CPUs
	// refRate is the fixed arrival rate (req/s) of the latency windows,
	// well under half of what the box serves.
	refRate = 300
	// winReqs is the request count of one latency window; the quiet half
	// of a run pools at least 2 windows, so its p99 has at least 10
	// samples beyond it.
	winReqs = 500
	// solveReqs is the request count of one closed-loop batch.
	solveReqs = 1800
	// setupTrials is how many times a run brings a server up, with a host
	// probe before the first and after every setupProbeEvery of them;
	// setup_s is their median.
	setupTrials, setupProbeEvery = 45, 9
	// The capacity search walks the fixed rates minRate·ladderStep^k up
	// to maxRate for the highest one whose p99 stays within limit.
	minRate, maxRate = 400, 3200
	ladderStep       = 1.04
	limit            = 15 * time.Millisecond
)

var (
	svcHot   = svcSpec{name: "svc-hot", keys: 400}
	svcChurn = svcSpec{name: "svc-churn", binary: true, keys: 600, zipf: 1.1, budget: 128 << 10}
)

// taskRef names one task of the workload: a kind (index into
// svcWorkload.kinds) and a key of its key space.
type taskRef struct {
	kind int
	key  uint64
}

// svcWorkload is a service workload's generated inputs: the request
// fragment and the reference output of every (kind, key), built from the
// seed before anything is timed.
type svcWorkload struct {
	spec  svcSpec
	seed  uint64
	kinds []service.Kind
	cum   []float64 // cumulative mix weights over kinds
	frag  [][]byte  // per task: its encoded element of a request body
	ref   [][]float64
	// kernelUS holds the reference computation's Kind.Fn timings.
	kernelUS map[string][]float64
	orc      oracle
}

func newSvcWorkload(spec svcSpec, seed uint64) (*svcWorkload, error) {
	w := &svcWorkload{spec: spec, seed: seed, kernelUS: map[string][]float64{}}
	mix := service.DefaultMix()
	var total float64
	for _, k := range service.Kinds() {
		if mix[k.Name] > 0 {
			w.kinds = append(w.kinds, k)
			total += mix[k.Name]
		}
	}
	var cum float64
	for _, k := range w.kinds {
		cum += mix[k.Name] / total
		w.cum = append(w.cum, cum)
	}
	w.cum[len(w.cum)-1] = 1

	// The engine registers service types without a τmax, so they get
	// taskrt's default; read it from a type registered the same way.
	rt := taskrt.New(taskrt.Config{Workers: 1})
	w.orc.tauMax = rt.RegisterType(taskrt.TypeConfig{Name: "perfbench/tau", Memoize: true, Run: func(*taskrt.Task) {}}).TauMax()
	rt.Close()

	n := len(w.kinds) * int(spec.keys)
	w.frag = make([][]byte, n)
	w.ref = make([][]float64, n)
	for ki, k := range w.kinds {
		for key := uint64(0); key < spec.keys; key++ {
			in := service.Input(k, key, seed)
			out := make([]float64, k.Out)
			t0 := time.Now()
			k.Fn(in, out)
			w.kernelUS[k.Name] = append(w.kernelUS[k.Name], micros(time.Since(t0)))
			i := w.index(taskRef{kind: ki, key: key})
			w.ref[i] = out
			var err error
			if w.frag[i], err = w.encodeTask(k.Name, in); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *svcWorkload) index(t taskRef) int { return t.kind*int(w.spec.keys) + int(t.key) }

// encodeTask renders one task as an element of a request body: a JSON
// task object, or one task of the binary encoding without its count.
func (w *svcWorkload) encodeTask(kind string, in []float64) ([]byte, error) {
	if w.spec.binary {
		b, err := service.EncodeBinaryTasks([]service.Task{{Kind: kind, Input: in}})
		if err != nil {
			return nil, err
		}
		return b[4:], nil
	}
	return json.Marshal(struct {
		Kind  string    `json:"kind"`
		Input []float64 `json:"input"`
	}{kind, in})
}

// body builds a request body from the cached task fragments.
func (w *svcWorkload) body(tasks []taskRef) []byte {
	size := 16
	for _, t := range tasks {
		size += len(w.frag[w.index(t)]) + 1
	}
	b := make([]byte, 0, size)
	if w.spec.binary {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(tasks)))
		for _, t := range tasks {
			b = append(b, w.frag[w.index(t)]...)
		}
		return b
	}
	b = append(b, `{"tasks":[`...)
	for i, t := range tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, w.frag[w.index(t)]...)
	}
	return append(b, "]}"...)
}

func (w *svcWorkload) contentType() string {
	if w.spec.binary {
		return "application/x-atm-tasks"
	}
	return "application/json"
}

// tasks expands one request's tasks into service tasks.
func (w *svcWorkload) tasks(req []taskRef) []service.Task {
	ts := make([]service.Task, len(req))
	for i, t := range req {
		k := w.kinds[t.kind]
		ts[i] = service.Task{Kind: k.Name, Input: service.Input(k, t.key, w.seed)}
	}
	return ts
}

// Phases draw their key schedules from independent streams of the seed.
const (
	phaseRecord = iota + 1
	phaseWarm
	phaseRef
	phaseCapacity
	phaseSolve
)

// schedule draws n requests of tasksPerReq tasks: each task's kind from
// the default mix, its key uniformly or Zipf-skewed over the key space.
func (w *svcWorkload) schedule(phase, n int) [][]taskRef {
	r := rand.New(rand.NewSource(int64(w.seed*1000003 + uint64(phase))))
	var z *rand.Zipf
	if w.spec.zipf > 0 {
		z = rand.NewZipf(r, w.spec.zipf, 1, w.spec.keys-1)
	}
	reqs := make([][]taskRef, n)
	for i := range reqs {
		req := make([]taskRef, tasksPerReq)
		for j := range req {
			u := r.Float64()
			k := sort.SearchFloat64s(w.cum, u)
			if k == len(w.cum) {
				k--
			}
			var key uint64
			if z != nil {
				key = z.Uint64()
			} else {
				key = uint64(r.Int63n(int64(w.spec.keys)))
			}
			req[j] = taskRef{kind: k, key: key}
		}
		reqs[i] = req
	}
	return reqs
}

// sweep is every task of the key space once, in a seeded order, grouped
// into requests.
func (w *svcWorkload) sweep(round int) [][]taskRef {
	all := make([]taskRef, 0, len(w.ref))
	for ki := range w.kinds {
		for key := uint64(0); key < w.spec.keys; key++ {
			all = append(all, taskRef{kind: ki, key: key})
		}
	}
	r := rand.New(rand.NewSource(int64(w.seed*1000003) + int64(round)))
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	var reqs [][]taskRef
	for len(all) > 0 {
		n := min(tasksPerReq, len(all))
		reqs = append(reqs, all[:n])
		all = all[n:]
	}
	return reqs
}

// svcATMSeed is the server's ATM seed (atmd's default). It perturbs ATM's
// sampling plans and with them the level a type settles at, so it is
// fixed: --seed reaches the program only as the workload's inputs.
const svcATMSeed = 0

func (w *svcWorkload) runOptions(chain string, record bool) harness.RunOptions {
	opt := harness.RunOptions{Seed: svcATMSeed, THTBudgetBytes: w.spec.budget, Sync: persist.SyncOff}
	if record {
		opt.SnapshotChain = chain
	} else {
		opt.SnapshotLoad = chain
	}
	return opt
}

// record builds the warm-start delta chain: a cold server (chain mode,
// as atmd -chain) serves recordRounds rounds of the workload's own key
// distribution in-process, and more until every memoized type has
// finished training, saving a delta record after the first round and at
// Close. A fixed amount of recorded work keeps the chain's size, and so
// the set-up it costs, a function of the seed.
func (w *svcWorkload) record(chain string) error {
	eng, info := harness.Serve(harness.Dynamic(true), w.runOptions(chain, true), service.Config{Workers: svcWorkers})
	if info.SnapshotErr != nil {
		eng.Close()
		return fmt.Errorf("record: %w", info.SnapshotErr)
	}
	const recordRounds, maxRounds = 4, 30
	round := 0
	for ; round < recordRounds || (round < maxRounds && !allSteady(eng.Stats())); round++ {
		reqs := w.sweep(round)
		if w.spec.zipf > 0 {
			reqs = w.schedule(phaseRecord*100+round, len(reqs))
		}
		for _, r := range reqs {
			if _, _, err := eng.Do(w.tasks(r)); err != nil {
				eng.Close()
				return fmt.Errorf("record: %w", err)
			}
		}
		if round == 0 {
			if err := eng.Snapshot(""); err != nil {
				eng.Close()
				return fmt.Errorf("record: %w", err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("record: final save: %w", err)
	}
	fi, err := os.Stat(chain)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: recorded a %d-byte chain in %d rounds\n", fi.Size(), round)
	return nil
}

func allSteady(st core.Stats) bool {
	for _, ts := range st.Types {
		if ts.Tasks > 0 && !ts.Steady {
			return false
		}
	}
	return true
}

// server is an atmd server built in-process the way cmd/atmd builds it:
// harness.Serve + service.NewServer behind net/http on loopback.
type server struct {
	eng  *service.Engine
	hs   *http.Server
	url  string
	done chan error
}

// Tracing headers: the client's span id and the request id, so the
// handler span joins the request's span tree.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// tracedHandler times Server.ServeHTTP (traced runs only).
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	if parent == 0 {
		h.next.ServeHTTP(rw, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	id := h.tr.begin("service.handler", parent, req)
	h.next.ServeHTTP(rw, r)
	h.tr.end(id)
}

// startServer warm-starts a server from the chain (load only: it never
// writes the chain back) and returns once GET /healthz answers.
func (w *svcWorkload) startServer(chain string, tr *tracer) (*server, error) {
	eng, info := harness.Serve(harness.Dynamic(true), w.runOptions(chain, false), service.Config{Workers: svcWorkers})
	if info.SnapshotErr != nil || !info.WarmStart || info.RestoredEntries == 0 {
		eng.Close()
		return nil, fmt.Errorf("warm start from %s failed (warm=%v entries=%d): %v", chain, info.WarmStart, info.RestoredEntries, info.SnapshotErr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	var h http.Handler = service.NewServer(eng)
	if tr != nil {
		h = tracedHandler{next: h, tr: tr}
	}
	s := &server{eng: eng, url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}}
	go func() { s.done <- s.hs.Serve(ln) }()
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tp, Timeout: 10 * time.Second}).Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return s, nil
}

// close drains the HTTP server and the engine and waits for both.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// runService runs svc-hot or svc-churn.
func runService(opt options, spec svcSpec, scratch string) (*result, error) {
	res := newResult()
	w, err := newSvcWorkload(spec, opt.seed)
	if err != nil {
		return nil, err
	}
	chain := filepath.Join(scratch, "warm.atmchain")
	if err := w.record(chain); err != nil {
		return nil, err
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	// Each phase starts from a collected heap, so garbage from input
	// generation and earlier phases does not land in the next one.
	runtime.GC()
	// The host is probed between groups of set-up trials and between
	// rounds, and each is scaled by the probes on either side of it
	// (hostprobe.go).
	probe := newHostProbe()
	prev := probe.run()
	var setups, group []float64
	var srv *server
	for i := 0; i < setupTrials; i++ {
		id := tr.begin("server.setup", 0, 0)
		t0 := time.Now()
		s, err := w.startServer(chain, tr)
		if err != nil {
			return nil, err
		}
		group = append(group, time.Since(t0).Seconds())
		tr.end(id)
		if i < setupTrials-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
		if (i+1)%setupProbeEvery == 0 {
			next := probe.run()
			for _, t := range group {
				setups = append(setups, t*between(prev, next))
			}
			group, prev = group[:0], next
		}
	}
	defer srv.close()
	res.set("setup_s", median(setups))

	c := newClient(w, srv.url, tr)
	defer c.close()
	tally := func(p *phase) {
		res.attempted += int64(p.requests)
		res.failed += p.failed
		if p.beyond > 0 || p.malformed > 0 {
			res.correct = false
		}
		c.total.add(p)
	}

	// Untimed warm-up: connections, caches and the THT's working set.
	tally(c.openLoop(w.schedule(phaseWarm, refRate), refRate, false))

	// Latency windows at the reference rate alternate with closed-loop
	// batches, so both sample the whole run rather than one stretch of
	// it. The traced run also searches for the capacity, so it runs
	// fewer of them.
	share := 0.85
	if tr != nil {
		share = 0.45
	}
	slotS := float64(winReqs)/refRate + 0.8 // one window, one batch and a probe
	rounds := max(4, int(opt.seconds*share/slotS))
	var (
		wins               []*phase
		winScales, passes  []float64
		refReqs            [][]taskRef
		d                  statDiff
		gc                 gcMeter
		ctrTasks, ctrBatch int64
		postStats          core.Stats
	)
	traced := func(i int) bool { return tr != nil && i%2 == 0 }
	prev = probe.run()
	for i := 0; i < rounds; i++ {
		reqs := w.schedule(phaseRef*1000+i, winReqs)
		refReqs = append(refReqs, reqs...)
		runtime.GC()
		preStats, preCtr, gc0 := srv.eng.Stats(), srv.eng.Counters(), readGC()
		win := c.openLoop(reqs, refRate, traced(i))
		gc.add(gc0.since())
		postStats = srv.eng.Stats()
		postCtr := srv.eng.Counters()
		d.add(diffStats(preStats, postStats))
		ctrTasks += postCtr.Tasks - preCtr.Tasks
		ctrBatch += postCtr.Batches - preCtr.Batches
		tally(win)
		wins = append(wins, win)

		reqs = w.schedule(phaseSolve*1000+i, solveReqs)
		runtime.GC()
		t0 := time.Now()
		p := c.closedLoop(reqs)
		pass := time.Since(t0).Seconds()
		tally(p)
		next := probe.run()
		f := between(prev, next)
		prev = next
		winScales = append(winScales, f)
		passes = append(passes, pass*f)
		fmt.Fprintf(os.Stderr, "perfbench: round %d: window p50 %.3f ms, batch %.4f s, probe %.1f ms (unscaled)\n",
			i, quantile(win.lat, 0.5), pass, next)
	}
	p50, p99, overhead := latency(wins, winScales, traced)
	res.set("submit_p50_ms", p50)
	res.set("submit_p99_ms", p99)
	solveS := quiet(passes)
	res.set("solve_s", solveS)
	res.set("host.probe_ms", probe.medianMS())

	// Capacity: the highest fixed rate meeting the p99 limit (traced
	// runs only: too unsteady on a shared 2-CPU guest to gate on).
	if tr != nil {
		rps, err := c.capacity(opt.seconds*0.4, tally)
		if err != nil {
			return nil, err
		}
		res.set("sustained_rps", rps)
	}

	if c.total.tasks == 0 {
		return nil, fmt.Errorf("no outputs were checked")
	}
	res.set("accuracy_pct", c.total.accSum/float64(c.total.tasks))
	if c.total.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", c.total.firstErr)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests (%d in latency windows), %d outputs checked, %d beyond τmax %.3g, setup trials %.4f (scaled), probe %.1f ms\n",
		spec.name, res.attempted, len(refReqs), c.total.tasks, c.total.beyond, w.orc.tauMax, setups, probe.medianMS())

	// Per-layer numbers, over the latency windows (reported by traced
	// runs).
	var reqBytes, respBytes int64
	var late time.Duration
	for _, win := range wins {
		reqBytes += win.reqBytes
		respBytes += win.respBytes
		late = max(late, win.lateMax)
	}
	res.set("core.reuse_ratio", d.reuse())
	res.set("core.tht_hit_ratio", ratio(d.thtHits, d.thtLookups))
	res.set("core.executed", float64(d.executed))
	res.set("core.ikt_defers", float64(d.iktDefers))
	res.set("core.tht_bytes", float64(postStats.THTBytes))
	res.set("core.tht_evictions", float64(d.evictions))
	res.set("core.admission_rejects", float64(d.rejects))
	res.set("core.hash_ns_per_task", ratio(int64(d.hash), d.tasks))
	res.set("core.copy_ns_per_task", ratio(int64(d.copy), d.tasks))
	var trainFail int64
	for _, ts := range postStats.Types {
		trainFail += ts.TrainingFailures
		if k, ok := strings.CutPrefix(ts.Name, "svc/"); ok {
			res.set("core.level.svc."+k, float64(ts.Level))
		}
	}
	res.set("core.train_failures", float64(trainFail))
	res.set("engine.tasks_per_batch", ratio(ctrTasks, ctrBatch))
	res.set("engine.shed_ratio", ratio(c.total.shed, res.attempted))
	res.set("service.req_bytes", ratio(reqBytes, int64(len(refReqs))))
	res.set("service.resp_bytes", ratio(respBytes, int64(len(refReqs))))
	res.set("gc.cpu_frac", gc.cpuFrac())
	res.set("gc.allocs_per_req", gc.allocs/float64(len(refReqs)))
	res.set("client.lateness_ms.max", late.Seconds()*1000)
	res.set("taskrt.tasks_per_s", float64(solveReqs*tasksPerReq)/solveS)
	for _, k := range w.kinds {
		res.set("kernel.exec_us."+k.Name, median(w.kernelUS[k.Name]))
	}
	if fi, err := os.Stat(chain); err == nil {
		res.set("persist.chain_bytes", float64(fi.Size()))
	}
	if tr == nil {
		return res, nil
	}
	res.spans = tr
	res.set("trace.overhead_pct", overhead)
	layerSpans(res, tr)
	if err := w.traceLayers(res, tr, srv.eng, refReqs, chain); err != nil {
		return nil, err
	}
	return res, nil
}

// statDiff is the change in the ATM counters over a phase.
type statDiff struct {
	tasks, executed, memo, thtHits, thtLookups, iktDefers, evictions, rejects int64
	hash, copy                                                                time.Duration
}

func (d statDiff) reuse() float64 { return ratio(d.memo, d.tasks) }

func (d *statDiff) add(e statDiff) {
	d.tasks += e.tasks
	d.executed += e.executed
	d.memo += e.memo
	d.thtHits += e.thtHits
	d.thtLookups += e.thtLookups
	d.iktDefers += e.iktDefers
	d.evictions += e.evictions
	d.rejects += e.rejects
	d.hash += e.hash
	d.copy += e.copy
}

func diffStats(a, b core.Stats) statDiff {
	var d statDiff
	for _, ts := range b.Types {
		d.tasks += ts.Tasks
		d.executed += ts.Executed
		d.memo += ts.MemoizedTHT + ts.MemoizedIKT
		d.hash += ts.HashTime
		d.copy += ts.CopyTime
	}
	for _, ts := range a.Types {
		d.tasks -= ts.Tasks
		d.executed -= ts.Executed
		d.memo -= ts.MemoizedTHT + ts.MemoizedIKT
		d.hash -= ts.HashTime
		d.copy -= ts.CopyTime
	}
	d.thtHits = b.THTHits - a.THTHits
	d.thtLookups = b.THTLookups - a.THTLookups
	d.iktDefers = b.IKTDefers - a.IKTDefers
	d.evictions = b.THTEvictions - a.THTEvictions
	d.rejects = b.THTAdmissionRejects - a.THTAdmissionRejects
	return d
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerSpans derives the HTTP layers' numbers from the span log: the
// handler's duration and the client round trip's self time (round trip
// minus handler), which is the network and client share.
func layerSpans(res *result, tr *tracer) {
	self := tr.selfTimes()
	us := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = micros(d)
		}
		return out
	}
	// A handler span has no children, so its self time is its duration.
	h := us(self["service.handler"])
	res.set("service.handler_us.p50", quantile(h, 0.5))
	res.set("service.handler_us.p99", quantile(h, 0.99))
	res.set("service.net_us.p50", quantile(us(self["client.submit"]), 0.5))
}

// traceLayers times the layers below the HTTP handler directly, on the
// same inputs: Engine.Do on an in-process replay of the reference
// phase's groups, Engine.LookupTenant (ATM.Peek) on warm keys, and the
// warm-start path's persist.LoadChain and core.RestoreChain.
func (w *svcWorkload) traceLayers(res *result, tr *tracer, eng *service.Engine, reqs [][]taskRef, chain string) error {
	reqs = reqs[:min(len(reqs), 2000)]
	var do, peek []float64
	for i, r := range reqs {
		tasks := w.tasks(r)
		var err error
		d := tr.timed("engine.do", 0, int64(i), func() { _, _, err = eng.Do(tasks) })
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		do = append(do, micros(d))
		for _, t := range tasks {
			var hit bool
			d := tr.timed("core.peek", 0, int64(i), func() { _, hit, err = eng.LookupTenant("", t.Kind, t.Input) })
			if err != nil {
				return fmt.Errorf("peek: %w", err)
			}
			if hit {
				peek = append(peek, micros(d))
			}
		}
	}
	res.set("engine.do_us.p50", quantile(do, 0.5))
	res.set("engine.do_us.p99", quantile(do, 0.99))
	if len(peek) > 0 {
		res.set("core.peek_us.p50", quantile(peek, 0.5))
	}
	res.set("service.codec_self_us.p50", res.values["service.handler_us.p50"]-res.values["engine.do_us.p50"])

	cfg := core.Config{Mode: core.ModeDynamic, Seed: svcATMSeed, THTBudgetBytes: w.spec.budget}
	var loads, restores []float64
	for i := 0; i < 3; i++ {
		var base *core.Snapshot
		var deltas []*core.Delta
		var err error
		d := tr.timed("persist.load", 0, 0, func() { base, deltas, err = persist.LoadChain(chain) })
		if err != nil {
			return err
		}
		loads = append(loads, d.Seconds())
		d = tr.timed("core.restore", 0, 0, func() { _, err = core.RestoreChain(cfg, base, deltas) })
		if err != nil {
			return err
		}
		restores = append(restores, d.Seconds())
	}
	res.set("persist.load_s", median(loads))
	res.set("persist.restore_s", median(restores))
	return nil
}
