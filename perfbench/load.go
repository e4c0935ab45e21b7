package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// client is the load generator: conns HTTP connections to one server,
// each driven by its own sender goroutine.
type client struct {
	w   *svcWorkload
	url string
	hc  *http.Client
	tp  *http.Transport
	tr  *tracer
	// total accumulates every phase's checked outputs.
	total phase
}

func newClient(w *svcWorkload, url string, tr *tracer) *client {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{w: w, url: url, tp: tp, tr: tr, hc: &http.Client{Transport: tp, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.tp.CloseIdleConnections() }

// job is one request: its body is built before its intended send time.
type job struct {
	idx      int
	intended time.Time
	body     []byte
	tasks    []taskRef
	traced   bool
}

// phase is what one load phase measured. lat[i] is request i's latency
// from its intended send time to its reply being read, +Inf when it
// failed (a failed request misses every limit).
type phase struct {
	requests             int
	lat                  []float64 // ms
	failed               int64
	shed                 int64
	beyond, malformed    int64
	tasks                int64
	accSum               float64
	reqBytes, respBytes  int64
	lateMax              time.Duration
	firstErr             error
	firstDue, lastFinish time.Time
}

func (p *phase) add(q *phase) {
	p.requests += q.requests
	p.reqBytes += q.reqBytes
	p.respBytes += q.respBytes
	p.failed += q.failed
	p.shed += q.shed
	p.beyond += q.beyond
	p.malformed += q.malformed
	p.tasks += q.tasks
	p.accSum += q.accSum
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func (p *phase) noteErr(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// send issues one request and scores its reply. The latency sample is
// taken before the oracle runs, so checking costs the client, not the
// measured latency.
func (c *client) send(j job, buf *bytes.Buffer, p *phase) {
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/submit", bytes.NewReader(j.body))
	if err != nil {
		p.noteErr(err)
		p.lat[j.idx] = math.Inf(1)
		return
	}
	req.Header.Set("Content-Type", c.w.contentType())
	var sid int64
	if j.traced {
		sid = c.tr.begin("client.submit", 0, int64(j.idx))
		req.Header.Set(hdrSpan, strconv.FormatInt(sid, 10))
		req.Header.Set(hdrReq, strconv.Itoa(j.idx))
	}
	resp, err := c.hc.Do(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	c.tr.end(sid)
	p.lastFinish = done
	p.lat[j.idx] = math.Inf(1)
	p.reqBytes += int64(len(j.body))
	switch {
	case err != nil:
		p.noteErr(err)
		return
	case status == http.StatusTooManyRequests:
		p.shed++
		p.noteErr(fmt.Errorf("HTTP 429 (shed)"))
		return
	case status != http.StatusOK:
		p.noteErr(fmt.Errorf("HTTP %d: %.200s", status, buf.String()))
		return
	}
	p.respBytes += int64(buf.Len())
	want := make([][]float64, len(j.tasks))
	for i, t := range j.tasks {
		want[i] = c.w.ref[c.w.index(t)]
	}
	v, err := c.w.orc.check(buf.Bytes(), want)
	if err != nil {
		p.malformed++
		p.noteErr(err)
		return
	}
	p.tasks += int64(v.tasks)
	p.accSum += v.accSum
	if v.beyond > 0 {
		p.beyond += int64(v.beyond)
		p.noteErr(fmt.Errorf("request %d: %d outputs beyond τmax", j.idx, v.beyond))
		return
	}
	p.lat[j.idx] = float64(done.Sub(j.intended)) / 1e6
}

// run sends every job the dispatcher produces on conns senders and
// merges their tallies. dispatch must close jobs when done.
func (c *client) run(n int, dispatch func(jobs chan<- job) time.Duration) *phase {
	jobs := make(chan job, n) // sized to the number of sends: dispatch never blocks
	lat := make([]float64, n)
	parts := make([]*phase, conns)
	var wg sync.WaitGroup
	for s := range parts {
		parts[s] = &phase{lat: lat}
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				c.send(j, &buf, p)
			}
		}(parts[s])
	}
	lateMax := dispatch(jobs)
	wg.Wait()
	out := &phase{requests: n, lat: lat, lateMax: lateMax}
	for _, p := range parts {
		out.add(p)
		if p.lastFinish.After(out.lastFinish) {
			out.lastFinish = p.lastFinish
		}
	}
	return out
}

// openLoop sends reqs on a fixed schedule: request i is due at
// start + i/rate whether or not earlier replies have arrived. A request
// waits for a free connection but keeps its due time, so a stall shows
// in the latency of every request behind it. traced requests carry
// tracing spans.
func (c *client) openLoop(reqs [][]taskRef, rate float64, traced bool) *phase {
	start := time.Now().Add(10 * time.Millisecond)
	interval := float64(time.Second) / rate
	p := c.run(len(reqs), func(jobs chan<- job) time.Duration {
		defer close(jobs)
		var late time.Duration
		for i, r := range reqs {
			j := job{idx: i, intended: start.Add(time.Duration(float64(i) * interval)), tasks: r, body: c.w.body(r), traced: traced}
			sleepUntil(j.intended)
			late = max(late, time.Since(j.intended))
			jobs <- j
		}
		return late
	})
	p.firstDue = start
	return p
}

// sleepUntil returns at t. time.Sleep wakes up to a millisecond late
// when the process is idle (the runtime poller's timeout granularity),
// so the generator sleeps in the kernel instead, to within its timer
// slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop sends reqs back to back: each connection sends its next
// request as soon as its previous reply is read.
func (c *client) closedLoop(reqs [][]taskRef) *phase {
	return c.run(len(reqs), func(jobs chan<- job) time.Duration {
		defer close(jobs)
		now := time.Now()
		for i, r := range reqs {
			jobs <- job{idx: i, intended: now, tasks: r, body: c.w.body(r)}
		}
		return 0
	})
}

// latency reports the median and p99 latency in ms of the quiet half of
// the windows: the half with the lowest median latency, pooled, after
// each window's latencies are scaled by scales[i] to the reference host
// (hostprobe.go). The benchmark shares a virtual machine whose CPUs slow
// down for seconds at a time while neighbours are busy (see quiet); a
// change to the program moves every window, a busy neighbour only the
// windows it overlaps. Traced windows against the others give the
// tracing overhead on the median latency, in percent.
func latency(wins []*phase, scales []float64, traced func(int) bool) (p50, p99, overhead float64) {
	type window struct {
		lat []float64
		p50 float64
	}
	var tracedP50, plainP50, all []float64
	byP50 := make([]window, len(wins))
	for i, w := range wins {
		lat := make([]float64, len(w.lat))
		for j, l := range w.lat {
			lat[j] = l * scales[i]
		}
		byP50[i] = window{lat: lat, p50: quantile(lat, 0.5)}
		if traced(i) {
			tracedP50 = append(tracedP50, byP50[i].p50)
		} else {
			plainP50 = append(plainP50, byP50[i].p50)
		}
		all = append(all, lat...)
	}
	if len(tracedP50) > 0 && len(plainP50) > 0 {
		overhead = 100 * (median(tracedP50)/median(plainP50) - 1)
	}
	sort.Slice(byP50, func(i, j int) bool { return byP50[i].p50 < byP50[j].p50 })
	var pool []float64
	for _, w := range byP50[:max(1, len(byP50)/2)] {
		pool = append(pool, w.lat...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d latency windows, quiet half p50 %.3f ms p99 %.3f ms (all windows %.3f / %.3f), scaled\n",
		len(wins), quantile(pool, 0.5), quantile(pool, 0.99), quantile(all, 0.5), quantile(all, 0.99))
	return quantile(pool, 0.5), quantile(pool, 0.99), overhead
}

// probe is one fixed-rate step of the capacity search.
type probe struct {
	rate float64
	p99  float64 // ms; +Inf when a request failed
	pass bool
}

// capacity finds the highest rate on the fixed ladder minRate·ladderStep^k
// that meets the p99 limit with no failures and no growing backlog, by
// bisection within a budget of budgetS seconds, and interpolates between
// it and the next rate up. A rate that misses is probed once more and
// judged by the better attempt: one stall of the shared machine must not
// decide the search.
func (c *client) capacity(budgetS float64, tally func(*phase)) (float64, error) {
	var ladder []float64
	for r := float64(minRate); r <= maxRate; r *= ladderStep {
		ladder = append(ladder, r)
	}
	steps := math.Ceil(math.Log2(float64(len(ladder) + 1)))
	dur := budgetS / (1.5 * steps) // about half the steps miss and repeat
	attempt := 0
	run := func(rate float64) probe {
		n := max(200, int(rate*dur))
		p := c.openLoop(c.w.schedule(phaseCapacity*1000+attempt, n), rate, false)
		attempt++
		tally(p)
		pr := probe{rate: rate, p99: quantile(p.lat, 0.99)}
		// Backlog: the last reply must arrive within the limit of the
		// last due time, or the queue was still growing.
		lastDue := p.firstDue.Add(time.Duration(float64(n-1) / rate * float64(time.Second)))
		pr.pass = p.failed == 0 && pr.p99 <= float64(limit)/1e6 && p.lastFinish.Sub(lastDue) <= limit
		fmt.Fprintf(os.Stderr, "perfbench: capacity probe %.0f req/s: p99 %.2f ms, pass %v (generator late up to %.2f ms)\n",
			rate, pr.p99, pr.pass, p.lateMax.Seconds()*1000)
		time.Sleep(100 * time.Millisecond) // let the server drain between probes
		return pr
	}
	lo, hi := probe{}, probe{}
	loIdx, hiIdx := -1, len(ladder)
	for hiIdx-loIdx > 1 {
		mid := (loIdx + hiIdx) / 2
		pr := run(ladder[mid])
		if !pr.pass {
			if again := run(ladder[mid]); again.pass || again.p99 < pr.p99 {
				pr = again
			}
		}
		if pr.pass {
			lo, loIdx = pr, mid
		} else {
			hi, hiIdx = pr, mid
		}
	}
	if loIdx < 0 {
		return 0, fmt.Errorf("capacity: even %d req/s misses the %v p99 limit", minRate, limit)
	}
	return sustained(lo, hi), nil
}

// sustained interpolates where p99 crosses the limit between the highest
// passing rate and the lowest failing one.
func sustained(lo, hi probe) float64 {
	if hi.rate == 0 || math.IsInf(hi.p99, 1) || hi.p99 <= lo.p99 {
		return lo.rate
	}
	f := (float64(limit)/1e6 - lo.p99) / (hi.p99 - lo.p99)
	f = math.Max(0, math.Min(1, f))
	return lo.rate + f*(hi.rate-lo.rate)
}
