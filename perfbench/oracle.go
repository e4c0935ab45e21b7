package main

import (
	"encoding/json"
	"fmt"
	"math"

	"atm/internal/metrics"
	"atm/internal/region"
)

// oracle scores the outputs atmd returns against references the
// benchmark recomputed locally with the public kernels (service.Kind.Fn).
// An output whose Chebyshev error τ exceeds the kind's τmax is a failed
// operation, the same bound dynamic ATM trains against.
type oracle struct {
	tauMax float64
}

// verdict is the oracle's score of one response.
type verdict struct {
	// tasks is the number of outputs scored; accSum sums their
	// correctness (the paper's (1-Er)·100); beyond counts outputs with
	// τ > τmax.
	tasks  int
	accSum float64
	beyond int
}

// submitReply is the part of the /v1/submit JSON reply the oracle reads.
type submitReply struct {
	Results []struct {
		Output []float64 `json:"output"`
	} `json:"results"`
}

// check decodes a submit reply and scores its outputs against want, the
// reference output of each task in request order. A reply that does not
// decode, or carries the wrong number or length of outputs, is an error.
func (o oracle) check(body []byte, want [][]float64) (verdict, error) {
	var reply submitReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return verdict{}, fmt.Errorf("oracle: malformed reply: %w", err)
	}
	if len(reply.Results) != len(want) {
		return verdict{}, fmt.Errorf("oracle: %d outputs for %d tasks", len(reply.Results), len(want))
	}
	var v verdict
	for i, r := range reply.Results {
		if len(r.Output) != len(want[i]) {
			return verdict{}, fmt.Errorf("oracle: task %d: output has %d values, want %d", i, len(r.Output), len(want[i]))
		}
		acc, ok := o.score(want[i], r.Output)
		v.tasks++
		v.accSum += acc
		if !ok {
			v.beyond++
		}
	}
	return v, nil
}

// score returns one output's correctness percentage and whether its
// Chebyshev error stays within τmax.
func (o oracle) score(ref, got []float64) (accPct float64, ok bool) {
	want := []region.Region{region.WrapFloat64(ref)}
	have := []region.Region{region.WrapFloat64(got)}
	tau := metrics.Chebyshev(want, have)
	return metrics.Correctness(metrics.Euclidean(want, have)), tau <= o.tauMax && !math.IsNaN(tau)
}
