package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Var() != 0 || r.SD() != 0 || r.SE() != 0 {
		t.Errorf("zero Running should report all zeros, got n=%d mean=%v var=%v", r.N(), r.Mean(), r.Var())
	}
	r.Add(42)
	if r.N() != 1 || r.Mean() != 42 || r.Var() != 0 || r.SE() != 0 {
		t.Errorf("single observation: n=%d mean=%v var=%v", r.N(), r.Mean(), r.Var())
	}
}

func TestRunningMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 0, 1000)
	var r Running
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 100
		xs = append(xs, x)
		r.Add(x)
	}
	if !almostEqual(r.Mean(), Mean(xs), 1e-12) {
		t.Errorf("Mean: running %v vs two-pass %v", r.Mean(), Mean(xs))
	}
	if !almostEqual(r.SD(), StdDev(xs), 1e-12) {
		t.Errorf("SD: running %v vs two-pass %v", r.SD(), StdDev(xs))
	}
	wantSE := StdDev(xs) / math.Sqrt(1000)
	if !almostEqual(r.SE(), wantSE, 1e-12) {
		t.Errorf("SE: running %v vs %v", r.SE(), wantSE)
	}
}

func TestRunningMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var r Running
		for i, v := range raw {
			xs[i] = float64(v) / 7
			r.Add(xs[i])
		}
		return almostEqual(r.Mean(), Mean(xs), 1e-9) && almostEqual(r.SD(), StdDev(xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEquivalentToSequential(t *testing.T) {
	f := func(a, b []int8) bool {
		var ra, rb, rall Running
		for _, v := range a {
			ra.Add(float64(v))
			rall.Add(float64(v))
		}
		for _, v := range b {
			rb.Add(float64(v))
			rall.Add(float64(v))
		}
		ra.Merge(rb)
		if ra.N() != rall.N() {
			return false
		}
		if ra.N() == 0 {
			return true
		}
		return almostEqual(ra.Mean(), rall.Mean(), 1e-9) && almostEqual(ra.Var(), rall.Var(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	for _, v := range []float64{1, 2, 3} {
		r.Add(v)
	}
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 || r.Var() != 0 {
		t.Errorf("after Reset: n=%d mean=%v var=%v", r.N(), r.Mean(), r.Var())
	}
}

func TestRunningNumericalStability(t *testing.T) {
	// Classic catastrophic-cancellation scenario: huge offset, tiny spread.
	var r Running
	const offset = 1e9
	for _, v := range []float64{4, 7, 13, 16} {
		r.Add(offset + v)
	}
	if !almostEqual(r.Mean(), offset+10, 1e-12) {
		t.Errorf("Mean = %v, want %v", r.Mean(), offset+10.0)
	}
	if !almostEqual(r.Var(), 30, 1e-9) { // var of {4,7,13,16} is 30
		t.Errorf("Var = %v, want 30", r.Var())
	}
}

func TestMeanStdDevEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of single element != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2.138089935299395, 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}
