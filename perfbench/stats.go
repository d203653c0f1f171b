package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1,000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples, and false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// millis converts latency samples to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the median of xs, leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// betterQuartile returns the quartile of xs on the better side: the
// upper quartile when higher is better, the lower one otherwise
// (nearest rank). Load from outside the benchmark only ever slows a
// round, so the better quartile reads the program on the share of the
// run the host disturbed least, and a disturbance that covers up to
// three quarters of the rounds leaves it in place.
func betterQuartile(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	q := 0.25
	if higher {
		q = 0.75
	}
	return xs[max(1, int(math.Ceil(q*float64(len(xs)))))-1]
}

// quantileOf returns the nearest-rank q-quantile of one phase's
// latency samples in milliseconds, and fails when fewer than minBeyond
// samples lie beyond it.
func quantileOf(ds []time.Duration, q float64) (float64, error) {
	v, ok := percentile(millis(ds), q)
	if !ok {
		return 0, fmt.Errorf("%d latency samples cannot support a %g-quantile (need %d beyond it)", len(ds), q, minBeyond)
	}
	return v, nil
}
