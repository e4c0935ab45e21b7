package main

import (
	"math"
	"sync"
	"time"
)

// The host probe measures how fast the machine runs. The benchmark
// shares a virtual machine with neighbours: while they are busy, the
// same work takes 1.3-3x as long, for seconds to minutes at a time, and
// a run that falls wholly inside such a phase is slow in every
// repetition, whatever estimator is taken over them. The probe is a
// fixed piece of pure-Go work that does not call the repository's code,
// so a change to the program does not move it while a change in the
// host's speed does. A run probes the host between its repetitions and
// scales each repetition by probeRefMS over the mean of the probes on
// either side of it, that is to a host on which the probe takes
// probeRefMS. The program slows down more than the probe: measured on a
// log scale, the scaling cancels about half of a host slowdown.
const (
	// probeRefMS is the probe's time in milliseconds on the reference host
	// (a 2-vCPU Xeon at 2.1 GHz while its neighbours were quiet).
	probeRefMS = 40.0
	// probeFloats is the length of each probe goroutine's buffer (1 MiB:
	// it stays in a core's L2 and adds little to the process's memory).
	probeFloats = 1 << 17
	// probeSweeps is how many times each goroutine sweeps its buffer.
	// The probe is one piece, not the median of several parts: the box's
	// 20-35 ms stalls slow the program too, so the probe counts them.
	probeSweeps = 112
	// probeGoroutines is one per CPU of the box, as many as the runtimes
	// under test have workers.
	probeGoroutines = 2
)

type hostProbe struct {
	bufs [probeGoroutines][]float64
	// ms is the duration of every probe of the run, in milliseconds.
	ms   []float64
	sink float64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for g := range p.bufs {
		p.bufs[g] = make([]float64, probeFloats)
		for i := range p.bufs[g] {
			p.bufs[g][i] = float64(i%1024) / 1024
		}
	}
	return p
}

// run does the probe's work once and records and returns its wall time
// in milliseconds.
func (p *hostProbe) run() float64 {
	var wg sync.WaitGroup
	var sums [probeGoroutines]float64
	start := time.Now()
	for g := range p.bufs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := p.bufs[g]
			s := 0.0
			for sweep := 0; sweep < probeSweeps; sweep++ {
				for i, v := range buf {
					v = 0.5*v + 0.25*math.Sqrt(v+1)
					buf[i] = v
					s += v
				}
			}
			sums[g] = s
		}(g)
	}
	wg.Wait()
	ms := micros(time.Since(start)) / 1e3
	p.ms = append(p.ms, ms)
	for _, s := range sums {
		p.sink += s
	}
	return ms
}

// medianMS is the run's median probe time in milliseconds.
func (p *hostProbe) medianMS() float64 { return median(p.ms) }

// between is the factor that takes a time measured between two probes
// of before and after milliseconds to the reference host.
func between(before, after float64) float64 { return 2 * probeRefMS / (before + after) }
