package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder the tail metric climbs.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailMinBeyond is how many samples must lie beyond a percentile before
// it may be reported as the tail.
const tailMinBeyond = 10

// tail returns the highest ladder percentile with at least tailMinBeyond
// samples beyond it, its nearest-rank value, and how many samples lie
// beyond it. ok is false when even the median has too few samples beyond.
func tail(samples []float64) (pct, value float64, beyond int, ok bool) {
	s := sorted(samples)
	for _, p := range tailLadder {
		rank := nearestRank(p, len(s))
		if len(s)-rank < tailMinBeyond {
			break
		}
		pct, value, beyond, ok = p, s[rank-1], len(s)-rank, true
	}
	return pct, value, beyond, ok
}

// nearestRank is the 1-based nearest-rank position of percentile p among
// n samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float error in p/100·n (99.9% of 10000 is
	// 9990.000000000002) from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile is the nearest-rank percentile p of samples (NaN if empty).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	return s[nearestRank(p, len(s))-1]
}

// median is the middle value of samples, averaging the two middle ones
// for an even count (NaN if empty).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is a/b, or 0 when b is 0 (an idle layer reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
