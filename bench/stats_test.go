package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so tail must sort
	}
	return s
}

// TestTailNeedsTenSamplesBeyond pins the tail rule: the highest ladder
// percentile with at least ten samples beyond its nearest-rank value.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
		ok     bool
	}{
		{9, 0, 0, 0, false},       // median has 4 beyond
		{20, 50, 10, 10, true},    // p50 exactly 10 beyond
		{99, 50, 50, 49, true},    // p90 would leave 9 beyond
		{100, 90, 90, 10, true},   // p90 exactly 10 beyond
		{120, 90, 108, 12, true},  // the svc-open size
		{999, 90, 900, 99, true},  // p99 would leave 9 beyond
		{1000, 99, 990, 10, true}, // p99 exactly 10 beyond
		{9999, 99, 9900, 99, true},
		{10000, 99.9, 9990, 10, true},
	}
	for _, c := range cases {
		pct, v, beyond, ok := tail(seq(c.n))
		if ok != c.ok || pct != c.pct || v != c.value || beyond != c.beyond {
			t.Errorf("n=%d: got p%g=%g (%d beyond, ok %v), want p%g=%g (%d beyond, ok %v)",
				c.n, pct, v, beyond, ok, c.pct, c.value, c.beyond, c.ok)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if p := percentile(seq(100), 99); p != 99 {
		t.Errorf("p99 of 1..100 = %g", p)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty samples must give NaN")
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio over zero must be 0")
	}
}
