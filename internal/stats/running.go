package stats

import "math"

// Running accumulates the count, mean and variance of a stream of
// observations using Welford's numerically stable one-pass recurrence.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Restore reconstructs an accumulator from previously exported Welford
// state (N, Mean, M2 — see the M2 accessor). A restored accumulator is
// bit-identical to the one that exported the state: the judgment store
// round-trips bags through Restore so warm-started queries observe the
// exact views a cold run would have produced.
func Restore(n int, mean, m2 float64) Running {
	if n <= 0 {
		return Running{}
	}
	return Running{n: n, mean: mean, m2: m2}
}

// N returns the number of observations seen so far.
func (r *Running) N() int { return r.n }

// M2 returns the raw Welford second-moment accumulator (the sum of
// squared deviations from the running mean). Exporting M2 instead of the
// derived SD lets Restore rebuild the accumulator without rounding loss.
func (r *Running) M2() float64 { return r.m2 }

// Mean returns the sample mean, or 0 if no observations have been added.
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (divisor n−1), or 0 when fewer
// than two observations have been added.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// SD returns the unbiased sample standard deviation.
func (r *Running) SD() float64 { return math.Sqrt(r.Var()) }

// SE returns the standard error of the mean, S/√n, or 0 when fewer than two
// observations have been added.
func (r *Running) SE() float64 {
	if r.n < 2 {
		return 0
	}
	return r.SD() / math.Sqrt(float64(r.n))
}

// Reset discards all accumulated observations.
func (r *Running) Reset() { *r = Running{} }

// Merge combines another accumulator into r, as if every observation added
// to o had been added to r (Chan et al.'s parallel variance update).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.mean += d * float64(o.n) / float64(n)
	r.n = n
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the unbiased sample standard deviation of xs, or 0 when
// len(xs) < 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
