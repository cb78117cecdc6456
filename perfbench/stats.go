package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sample is one open-loop latency and the group it is a part of: its round
// (reads) or its placeWindow-long slice of a round (placements).
type sample struct {
	group int
	ms    float64
}

// placeWindow: a placement tail is taken per 250 ms of open loop (about 190
// placements, so ten lie beyond a p95), and the median over the run's
// windows is reported.
const placeWindow = 250 * time.Millisecond

func values(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// perGroup returns the median over groups of each group's q-quantile. A
// burst of another tenant's disk traffic on the shared host then moves a
// few groups, not the result.
func perGroup(xs []sample, q float64) float64 {
	groups := map[int][]float64{}
	for _, x := range xs {
		groups[x.group] = append(groups[x.group], x.ms)
	}
	var per []float64
	for _, g := range groups {
		per = append(per, quantile(g, q))
	}
	return median(per)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
