// Command perfbench is the repository's end-to-end benchmark. It drives
// ATM the way its two kinds of users do: service clients submitting task
// groups to an atmd server over HTTP (workloads svc-hot and svc-churn),
// and library users running the paper's task-parallel apps in-process
// through taskrt + core (workload apps-dynamic). Every output is checked
// against a locally recomputed reference.
//
//	bash perfbench/run.sh --workload svc-hot --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0 it
// carries the end-to-end metrics, with --trace 1 the per-layer metrics
// of a separate traced run. README.md lists the workloads, the metrics
// and which end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric the benchmark prints: its name, its unit and
// the value reported when a workload does not exercise its layer.
type metricDef struct {
	name, unit string
	absent     float64
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{name: "submit_p50_ms", unit: "ms"},
	{name: "solve_s", unit: "s"},
	{name: "accuracy_pct", unit: "%"},
	{name: "ok_pct", unit: "%"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// Catalogs the per-layer names are built from: the service's memoizable
// kinds (in service.DefaultMix) and the six Table I apps.
var (
	svcKinds = []string{"blackscholes", "kmeans", "lu", "stencil", "swaptions"}
	appNames = []string{"Blackscholes", "GS", "Jacobi", "Kmeans", "LU", "Swaptions"}
)

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0, and a task type it does not run reports level -1.
// The tail latency and the capacity lead the list: they are end-to-end
// numbers whose run-to-run spread on a shared 2-CPU guest is too wide
// to gate on (README.md).
var perLayer = func() []metricDef {
	ds := []metricDef{
		{name: "submit_p99_ms", unit: "ms"},
		{name: "sustained_rps", unit: "1/s"},
		{name: "service.handler_us.p50", unit: "us"},
		{name: "service.handler_us.p99", unit: "us"},
		{name: "service.net_us.p50", unit: "us"},
		{name: "service.codec_self_us.p50", unit: "us"},
		{name: "service.req_bytes", unit: "B"},
		{name: "service.resp_bytes", unit: "B"},
		{name: "engine.do_us.p50", unit: "us"},
		{name: "engine.do_us.p99", unit: "us"},
		{name: "engine.tasks_per_batch", unit: "count"},
		{name: "engine.shed_ratio", unit: "ratio"},
		{name: "core.peek_us.p50", unit: "us"},
		{name: "core.reuse_ratio", unit: "ratio"},
		{name: "core.tht_hit_ratio", unit: "ratio"},
		{name: "core.executed", unit: "count"},
		{name: "core.ikt_defers", unit: "count"},
		{name: "core.tht_bytes", unit: "B"},
		{name: "core.tht_evictions", unit: "count"},
		{name: "core.admission_rejects", unit: "count"},
		{name: "core.hash_ns_per_task", unit: "ns"},
		{name: "core.copy_ns_per_task", unit: "ns"},
		{name: "core.train_failures", unit: "count"},
	}
	for _, k := range svcKinds {
		ds = append(ds, metricDef{name: "core.level.svc." + k, unit: "level", absent: -1})
	}
	for _, a := range appNames {
		ds = append(ds, metricDef{name: "core.level." + a, unit: "level", absent: -1})
	}
	for _, k := range svcKinds {
		ds = append(ds, metricDef{name: "kernel.exec_us." + k, unit: "us"})
	}
	ds = append(ds,
		metricDef{name: "taskrt.baseline_s", unit: "s"},
		metricDef{name: "taskrt.tasks_per_s", unit: "1/s"},
		metricDef{name: "derived.speedup", unit: "x"},
		metricDef{name: "persist.load_s", unit: "s"},
		metricDef{name: "persist.restore_s", unit: "s"},
		metricDef{name: "persist.chain_bytes", unit: "B"},
		metricDef{name: "gc.cpu_frac", unit: "ratio"},
		metricDef{name: "gc.allocs_per_req", unit: "count"},
		metricDef{name: "client.lateness_ms.max", unit: "ms"},
	)
	for _, a := range appNames {
		ds = append(ds, metricDef{name: "apps.accuracy_pct." + a, unit: "%"})
	}
	ds = append(ds,
		metricDef{name: "apps.nonfinite_runs", unit: "count"},
		metricDef{name: "host.probe_ms", unit: "ms"},
		metricDef{name: "failed_ratio", unit: "ratio"},
		metricDef{name: "trace.overhead_pct", unit: "%"},
	)
	return ds
}()

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// outDir holds everything the run writes (scratch files, traces).
	outDir string
}

// result is what a workload run hands back: its operation counts, its
// output check and every metric it measured.
type result struct {
	attempted, failed int64
	correct           bool
	values            map[string]float64
	// spans is the traced run's span log (nil untraced).
	spans *tracer
}

func newResult() *result { return &result{correct: true, values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func main() {
	os.Exit(run())
}

func run() int {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload: svc-hot | svc-churn | apps-dynamic")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed (the inputs are a function of it)")
	flag.Float64Var(&opt.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	opt.trace = traceFlag == 1
	opt.outDir = os.Getenv("PERFBENCH_OUT")
	if opt.outDir == "" {
		opt.outDir = ".bench_build"
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(opt.outDir, "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	var res *result
	switch opt.workload {
	case "svc-hot":
		res, err = runService(opt, svcHot, scratch)
	case "svc-churn":
		res, err = runService(opt, svcChurn, scratch)
	case "apps-dynamic":
		res, err = runApps(opt)
	default:
		err = fmt.Errorf("unknown workload %q (want svc-hot, svc-churn or apps-dynamic)", opt.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.set("peak_rss_mb", peakRSSMB())
	if res.attempted > 0 {
		res.set("ok_pct", 100*float64(res.attempted-res.failed)/float64(res.attempted))
		res.set("failed_ratio", float64(res.failed)/float64(res.attempted))
	}
	if res.spans != nil {
		path := filepath.Join(opt.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := res.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", res.spans.len(), path)
	}
	return emit(opt, res)
}

// emit prints every metric to standard error and the result line to
// standard output. A missing end-to-end metric is a benchmark bug.
func emit(opt options, res *result) int {
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: res.correct && res.attempted > 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			if !opt.trace {
				fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", opt.workload, d.name)
				return 1
			}
			v = d.absent
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is not finite (%v)\n", d.name, v)
			return 1
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	names := make([]string, 0, len(res.values))
	for n := range res.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %v\n", n, res.values[n])
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or
// falls back to the Go runtime's total mapped memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// gcMeter is a reading, or a difference of readings, of the GC's CPU
// time, the process's CPU time and the heap objects allocated
// (process-wide: client and server share it).
type gcMeter struct{ gcCPU, totalCPU, allocs float64 }

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func readGC() gcMeter {
	s := make([]metrics.Sample, len(gcSamples))
	copy(s, gcSamples)
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return gcMeter{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocs: val(s[2].Value)}
}

// since returns what the GC did between m and now.
func (m gcMeter) since() gcMeter {
	now := readGC()
	return gcMeter{gcCPU: now.gcCPU - m.gcCPU, totalCPU: now.totalCPU - m.totalCPU, allocs: now.allocs - m.allocs}
}

func (m *gcMeter) add(d gcMeter) {
	m.gcCPU += d.gcCPU
	m.totalCPU += d.totalCPU
	m.allocs += d.allocs
}

// cpuFrac is the GC's share of the CPU time m spans.
func (m gcMeter) cpuFrac() float64 {
	if m.totalCPU <= 0 {
		return 0
	}
	return m.gcCPU / m.totalCPU
}

// quiet is the service workloads' estimator for timings repeated within
// a run: their lower quartile. The benchmark shares a virtual machine
// whose CPUs slow down, and whose whole box stalls for tens of
// milliseconds, while neighbours are busy; a change to the program moves
// every repetition, while a burst of neighbour activity moves only the
// repetitions it overlaps, and the lower quartile is steady as long as
// it overlaps fewer than three quarters of them. A slowdown that spans
// the whole run is cancelled by the host probe (hostprobe.go).
func quiet(xs []float64) float64 { return quantile(xs, 0.25) }

// median returns the middle of xs (the mean of the two middles for even
// lengths); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for empty input).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
