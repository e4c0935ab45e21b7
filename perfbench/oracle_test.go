package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"atm/internal/service"
)

func reply(t *testing.T, outs ...[]float64) []byte {
	t.Helper()
	var r submitReply
	for _, o := range outs {
		r.Results = append(r.Results, struct {
			Output []float64 `json:"output"`
		}{o})
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOracleCountsOutputsBeyondTauMax(t *testing.T) {
	k, _ := service.KindByName("blackscholes")
	ref := make([]float64, k.Out)
	k.Fn(service.Input(k, 7, 1), ref)
	o := oracle{tauMax: 0.01}

	v, err := o.check(reply(t, ref, ref), [][]float64{ref, ref})
	if err != nil || v.beyond != 0 || v.tasks != 2 || v.accSum != 200 {
		t.Fatalf("exact outputs: verdict %+v, err %v", v, err)
	}

	bad := append([]float64(nil), ref...)
	bad[3] += 0.05 * maxAbs(ref) // τ = 0.05 > τmax
	v, err = o.check(reply(t, ref, bad), [][]float64{ref, ref})
	if err != nil || v.beyond != 1 {
		t.Fatalf("corrupted output: verdict %+v, err %v; want 1 beyond τmax", v, err)
	}

	close := append([]float64(nil), ref...)
	close[3] += 0.001 * maxAbs(ref) // τ = 0.001, within τmax
	if v, err = o.check(reply(t, close), [][]float64{ref}); err != nil || v.beyond != 0 {
		t.Fatalf("output within τmax: verdict %+v, err %v", v, err)
	}

	if _, err := o.check(reply(t, ref), [][]float64{ref, ref}); err == nil {
		t.Fatal("a reply missing an output was accepted")
	}
	if _, err := o.check(reply(t, ref[:3]), [][]float64{ref}); err == nil {
		t.Fatal("a short output was accepted")
	}
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x, -x)
	}
	return m
}

// TestClientCountsCorruptedReplies runs the load generator against a
// server that corrupts one output per reply: every request must count as
// failed, with its output beyond τmax.
func TestClientCountsCorruptedReplies(t *testing.T) {
	spec := svcHot
	spec.keys = 4
	w, err := newSvcWorkload(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var req struct {
			Tasks []struct {
				Kind  string    `json:"kind"`
				Input []float64 `json:"input"`
			} `json:"tasks"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		var outs [][]float64
		for _, task := range req.Tasks {
			k, _ := service.KindByName(task.Kind)
			out := make([]float64, k.Out)
			k.Fn(task.Input, out)
			outs = append(outs, out)
		}
		outs[0][0] += 1 + maxAbs(outs[0])
		rw.Write(reply(t, outs...))
	}))
	defer srv.Close()

	c := newClient(w, srv.URL, nil)
	defer c.close()
	p := c.closedLoop(w.schedule(phaseSolve, 5))
	if p.failed != 5 || p.beyond != 5 || p.malformed != 0 {
		t.Fatalf("failed %d, beyond τmax %d, malformed %d; want 5, 5, 0 (first error %v)", p.failed, p.beyond, p.malformed, p.firstErr)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10-40 and 90-100)", got)
	}
}
