package main

import (
	"math"
	"sort"
	"time"
)

// samples holds raw per-operation timings in nanoseconds. The benchmark
// keeps its own samples on purpose: the program's histograms are log₂
// bucketed, far too coarse to resolve a 10 % regression bound.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)) }

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// pct returns the p-th percentile (nearest rank) of an ascending slice.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPct is the highest percentile of the ladder that still leaves at
// least ten of n samples beyond it; a tail read off fewer samples is a
// handful of outliers, not a quantile.
func tailPct(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// median of an unsorted slice (0 when empty).
func median(v []float64) float64 {
	return samples(v).sorted().pct(50)
}

// mid is the interquartile mean: the mean of the middle half of the
// samples. Fork-call latency under a live server is bimodal (the call
// either finds the address-space lock free or waits out a request), and
// the median of a half-and-half mixture jumps between the two modes
// from run to run; the middle half's mean moves smoothly with the mix.
// On a unimodal sample it sits on the median.
func mid(v []float64) float64 {
	s := samples(v).sorted()
	if len(s) == 0 {
		return 0
	}
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// timing summarises one set of raw samples.
type timing struct {
	P50, Tail float64 // ns
	TailPct   float64
	N         int
}

func summarize(s samples) timing {
	c := s.sorted()
	p := tailPct(len(c))
	return timing{P50: c.pct(50), Tail: c.pct(p), TailPct: p, N: len(c)}
}
