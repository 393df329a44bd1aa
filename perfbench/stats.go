package main

import (
	"math"
	"sort"
	"time"
)

// Durations divided by these read in microseconds and milliseconds.
const (
	us = float64(time.Microsecond)
	ms = float64(time.Millisecond)
)

// quantile estimates the q-quantile of ns-resolution durations the
// Harrell–Davis way: a weighted average of all order statistics, the
// weights a kernel around rank q·n as wide as the quantile's own
// sampling spread. The Beta(q(n+1), (1-q)(n+1)) weights of the original
// estimator are replaced by the normal curve of the same mean and
// variance. Unlike a single order statistic, the estimate moves smoothly
// when a latency distribution has several modes and its quantile falls
// between them, which keeps it steady from run to run. 0 for an empty
// sample.
func quantile(ds []time.Duration, q float64) float64 {
	n := len(ds)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	sd := math.Sqrt(q * (1 - q) / float64(n+2))
	if sd == 0 {
		return float64(s[int(q*float64(n-1))])
	}
	cdf := func(x float64) float64 { return 0.5 * (1 + math.Erf((x-q)/(sd*math.Sqrt2))) }
	lo, hi := cdf(0), cdf(1)
	sum, prev := 0.0, lo
	for i, d := range s {
		next := cdf(float64(i+1) / float64(n))
		sum += (next - prev) * float64(d)
		prev = next
	}
	return sum / (hi - lo)
}

// quantileUs returns the q-quantile, in microseconds, of span times the
// span clock reports in whole microseconds. Each value v stands for a
// time somewhere in [v, v+1) µs, so the quantile is interpolated inside
// its microsecond the way a median of grouped data is: a sample whose
// true times drift within one microsecond still moves the result. 0 for
// an empty sample.
func quantileUs(us []int64, q float64) float64 {
	if len(us) == 0 {
		return 0
	}
	s := append([]int64(nil), us...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := q * float64(len(s))
	i := min(int(rank), len(s)-1)
	v := s[i]
	below := sort.Search(len(s), func(k int) bool { return s[k] >= v })
	at := sort.Search(len(s), func(k int) bool { return s[k] > v }) - below
	return float64(v) + (rank-float64(below))/float64(at)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
