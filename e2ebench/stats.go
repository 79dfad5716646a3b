package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailIndex returns the rank (0-based, ascending) of the tail sample
// to report out of n: p99 when at least minBeyond samples lie above it,
// otherwise the highest rank that still leaves minBeyond samples
// beyond it. When that rank would not even reach the median, there is
// no tail to speak of and the max is returned. Integer arithmetic
// keeps the rank exact.
func tailIndex(n int) int {
	switch {
	case n-1-minBeyond <= (n+1)/2-1: // not above the nearest-rank median
		return n - 1
	case n >= 100*minBeyond:
		return (99*n+99)/100 - 1 // nearest-rank p99: ceil(0.99 n) - 1
	default:
		return n - 1 - minBeyond
	}
}

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// summary is a latency distribution reduced to what the benchmark
// reports: median and tail, the tail's quantile, and the sample count.
type summary struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
	// Beyond counts the samples above Tail.
	Beyond int
	Max    float64
	Mean   float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ti := tailIndex(len(s))
	return summary{
		N: len(s), P50: quantile(s, 0.5), Tail: s[ti], TailQ: float64(ti+1) / float64(len(s)),
		Beyond: len(s) - 1 - ti,
		Max:    s[len(s)-1],
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
