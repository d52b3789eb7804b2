package compare

import (
	"math/rand"
	"reflect"
	"testing"

	"crowdtopk/internal/crowd"
)

// legacyCompare is the pre-policy-layer comparison loop, embedded
// verbatim as the refactor's equivalence reference: buy up to I samples
// to overcome cold start (the granted samples cost ceil(granted/Step)
// batch rounds), then alternate Test with Step-sized purchases clamped
// to the remaining per-pair budget, concluding a tie when it runs dry.
// The Runner driving an estimator policy's fixed schedule must
// reproduce this loop byte for byte — same verdicts, same TMC, same
// audit log, same latency rounds.
func legacyCompare(eng *crowd.Engine, t Policy, prm Params, i, j int) Outcome {
	budgetLeft := func(n int) int {
		if prm.B <= 0 {
			return int(^uint(0) >> 1)
		}
		return prm.B - n
	}
	v := eng.View(i, j)
	for {
		if need := prm.I - v.N; need > 0 {
			before := v.N
			v, _ = eng.DrawN(i, j, need)
			granted := v.N - before
			if granted == 0 {
				return Tie
			}
			eng.Tick((granted + prm.Step - 1) / prm.Step)
		}
		if o := t.Test(v); o != Tie {
			return o
		}
		left := budgetLeft(v.N)
		if left <= 0 {
			return Tie
		}
		n := prm.Step
		if n > left {
			n = left
		}
		before := v.N
		v, _ = eng.DrawN(i, j, n)
		if v.N == before {
			return Tie
		}
		eng.Tick(1)
	}
}

// equivalenceEstimators is the full legacy estimator roster the
// fixed schedule must keep byte-identical.
var equivalenceEstimators = map[string]func(alpha float64) Policy{
	"student":          func(a float64) Policy { return NewStudent(a) },
	"student-onesided": func(a float64) Policy { return NewStudentOneSided(a) },
	"stein":            func(a float64) Policy { return NewStein(a) },
	"hoeffding":        func(a float64) Policy { return NewHoeffding(a) },
	"hoeffding-pref":   func(a float64) Policy { return NewHoeffdingPref(a) },
}

// TestRunnerMatchesLegacyReferenceLoop runs the same pair workload —
// decisive pairs, near-ties that exhaust the budget, and everything in
// between — through the refactored Runner and through the embedded
// legacy loop on twin engines (same oracle, same seed, so identical
// sample streams), for every legacy estimator, and requires the two
// executions to be indistinguishable: verdicts, TMC, rounds and the
// full audit log.
func TestRunnerMatchesLegacyReferenceLoop(t *testing.T) {
	const (
		nItems = 6
		alpha  = 0.05
	)
	// sigma 0.6 against the 0.15-per-rank gap mixes quick conclusions on
	// distant pairs with budget-exhausted ties on adjacent ones.
	params := Params{B: 200, I: 30, Step: 30}
	for name, mk := range equivalenceEstimators {
		t.Run(name, func(t *testing.T) {
			refEng := crowd.NewEngine(gaussItems{nItems, 0.6}, rand.New(rand.NewSource(97)))
			refLog, newLog := new(crowd.MemLog), new(crowd.MemLog)
			refEng.SetLogSink(refLog)
			newEng := crowd.NewEngine(gaussItems{nItems, 0.6}, rand.New(rand.NewSource(97)))
			newEng.SetLogSink(newLog)
			r := NewRunner(newEng, mk(alpha), params)

			for i := 0; i < nItems; i++ {
				for j := i + 1; j < nItems; j++ {
					want := legacyCompare(refEng, mk(alpha), params, i, j)
					got := r.Compare(i, j)
					if got != want {
						t.Errorf("Compare(%d,%d) = %v, legacy %v", i, j, got, want)
					}
				}
			}
			if g, w := newEng.TMC(), refEng.TMC(); g != w {
				t.Errorf("TMC = %d, legacy %d", g, w)
			}
			if g, w := newEng.Rounds(), refEng.Rounds(); g != w {
				t.Errorf("rounds = %d, legacy %d", g, w)
			}
			if w := refEng.TMC(); w == 0 {
				t.Fatal("reference run spent nothing; the scenario is vacuous")
			}
			if !reflect.DeepEqual(newLog.Log(), refLog.Log()) {
				t.Errorf("audit logs diverge: %d vs %d records", len(newLog.Log()), len(refLog.Log()))
			}
		})
	}
}

// TestRunnerMatchesLegacyReferenceLoopUnlimited covers the B <= 0
// (unlimited budget) branch, where the legacy exhaustion check `left <=
// 0` can never fire and neither may the fixed schedule's Next return
// <= 0.
func TestRunnerMatchesLegacyReferenceLoopUnlimited(t *testing.T) {
	params := Params{B: 0, I: 30, Step: 30}
	refEng := crowd.NewEngine(gaussItems{3, 0.3}, rand.New(rand.NewSource(98)))
	refLog, newLog := new(crowd.MemLog), new(crowd.MemLog)
	refEng.SetLogSink(refLog)
	newEng := crowd.NewEngine(gaussItems{3, 0.3}, rand.New(rand.NewSource(98)))
	newEng.SetLogSink(newLog)
	r := NewRunner(newEng, NewStudent(0.05), params)
	for i := 0; i < 2; i++ {
		want := legacyCompare(refEng, NewStudent(0.05), params, i, i+1)
		if got := r.Compare(i, i+1); got != want {
			t.Errorf("Compare(%d,%d) = %v, legacy %v", i, i+1, got, want)
		}
	}
	if g, w := newEng.TMC(), refEng.TMC(); g != w {
		t.Errorf("TMC = %d, legacy %d", g, w)
	}
	if !reflect.DeepEqual(newLog.Log(), refLog.Log()) {
		t.Error("audit logs diverge under unlimited budget")
	}
}
