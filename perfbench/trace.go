package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own code. Spans of one request share req; parent is the
// span that caused this one (0 = a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Req: req, Name: name, Start: now})
	id := int64(len(t.spans))
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, req int64, f func()) time.Duration {
	id := t.begin(name, parent, req)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the self time of every closed span
// of that name: its duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered(s, children[s.ID])))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write dumps the spans as JSON lines, followed by one summary line per
// span name with its count and its self-time quartiles in microseconds.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		us := make([]float64, len(self[n]))
		for i, d := range self[n] {
			us[i] = micros(d)
		}
		line := map[string]any{"summary": n, "count": len(us),
			"self_us_p25": quantile(us, 0.25), "self_us_p50": quantile(us, 0.5), "self_us_p75": quantile(us, 0.75)}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}
